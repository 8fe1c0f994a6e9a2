(** The three-level refinement driver.

    Wires the two specifications to their implementations and runs the
    whole stack in lockstep:

    {v
      abstract spec      Mspec (per-colour machines + channel copies)
          ↑ phi                    ↑ trace/buffer equality
      machine kernel Sue      behavioural kernel Regime_kernel
          \                         /
           same Kact workload, same committed word streams
    v}

    Three checked relations: the machine square ([Sue.phi] against
    {!Mspec} after every instruction), the behavioural square ({!Bspec}
    against [Regime_kernel] after every rotation), and the Kahn stream
    tie (all levels commit the same per-channel and per-transmitter word
    streams on a shared {!Kact} workload). Seeded kernel bugs must
    surface as a divergence in one of the squares; counterexamples are
    shrunk to a minimal workload and replayed by seed. *)

module Colour = Sep_model.Colour
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Regime_kernel = Sep_core.Regime_kernel
module Gen = Sep_check.Gen
module Json = Sep_util.Json

type divergence = {
  d_level : string;  (** ["machine"], ["behavioural"] or ["streams"] *)
  d_step : int;  (** machine step or rotation of first disagreement *)
  d_reason : string;
}

val pp_divergence : Format.formatter -> divergence -> unit

(** {1 The commuting squares} *)

val check_machine :
  ?bugs:Sue.bug list -> Sep_hw.Isa.stmt list Config.t -> schedule:Sue.input list -> steps:int ->
  (int, divergence) result
(** Lockstep [Sue] (optionally seeded with bugs) against a clean {!Mspec}
    on one configuration and input schedule. [Ok checks] counts the
    commuting-square comparisons performed. *)

val check_behaviour :
  ?bugs:Regime_kernel.bug list -> Kact.case -> (int, divergence) result
(** Lockstep [Regime_kernel] against {!Bspec} on one workload. *)

val check_stack : Kact.case -> (int, divergence) result
(** The full stack on one workload: machine square, behavioural square,
    and the committed word streams of all three levels against the
    reference evaluation. *)

val machine_case : (Sep_hw.Isa.stmt list Config.t * Sue.input list) Gen.t
(** Generated machine-level workload: a {!Gen.config} drawn together with
    an input schedule over its receive alphabet; one quarter of the draws
    have every channel cut. *)

(** {1 Stock scenarios} *)

val scenario_results :
  ?schedules:int -> ?steps:int -> seed:int -> unit -> (string * (int, divergence) result) list
(** The machine square on every {!Sep_core.Scenarios} instance, over
    [schedules] seeded input schedules each. A clean kernel must pass
    all of them. *)

(** {1 Mutant kill racing} *)

type kill = {
  k_bug : string;
  k_level : string;  (** ["sue"] or ["regime_kernel"] *)
  k_killed : bool;
  k_seed : int;  (** replays the divergence: [rushby refine --replay seed --bug bug] *)
  k_attempts : int;  (** seeds tried before the kill (1-based; 0 if missed) *)
  k_scenario : string;  (** catalogue label or ["generated"] *)
  k_step : int;  (** first divergent step of the minimized workload *)
  k_original_size : int;
  k_shrunk_size : int;
  k_shrink_steps : int;
}

val replay_command : kill -> string

val kill_table : ?jobs:int -> seed:int -> attempts:int -> unit -> kill list
(** Race every seeded [Sue] bug and [Regime_kernel] bug against the
    stack: each bug is one deterministic seeded task (so the table is
    byte-identical at any [-j]), trying up to [attempts] seeds and
    shrinking the first divergent workload to a minimum. *)

val replay : seed:int -> bug:string -> (kill option, string) result
(** Re-run one bug's detection attempt on one seed: [Ok (Some kill)] when
    it diverges (with the same shrinking as {!kill_table}), [Ok None]
    when that seed does not expose the bug, [Error] for an unknown bug
    name. *)

val known_bugs : string list

(** {1 The refinement campaign} *)

type report = {
  rp_seed : int;
  rp_smoke : bool;
  rp_scenarios : (string * (int, divergence) result) list;  (** {!scenario_results} *)
  rp_machines : (int * (int, divergence) result) list;
      (** {!check_machine} on generated {!machine_case}s, by seed *)
  rp_stacks : (int * (int, divergence) result) list;
      (** {!check_stack} on generated {!Kact} workloads, by seed *)
  rp_kills : kill list;  (** {!kill_table} *)
}

val run : ?jobs:int -> smoke:bool -> seed:int -> unit -> report
(** [rushby refine]: the lockstep sweep and the kill race, at CI budgets
    when [smoke]. *)

val checks : report -> int
(** Commuting-square checks over every lockstep run. *)

val divergences : report -> (string * divergence) list
(** The lockstep runs that diverged on the clean kernel, labelled. *)

val killed : report -> kill list

val holds : report -> bool
(** No clean run diverged and every seeded bug was killed. *)

val report_lines : report -> Json.t list
(** One ["refine-header"] line, one ["refine-scenario"],
    ["refine-machine"] or ["refine-stack"] line per lockstep run, one
    ["refine-kill"] line per bug, then one ["refine-summary"]. *)
