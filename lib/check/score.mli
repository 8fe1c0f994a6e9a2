(** Mutant kill-rate scoring: how fast does each checking strategy catch
    each seeded kernel bug?

    For every {!Sep_core.Mutants.catalogue} entry the scorer runs three
    detectors and records the work each needed:

    - {e exhaustive} — {!Sep_core.Separability.check} over the reachable
      states of the mutant scenario, stopping at the first failure;
    - {e randomized} — {!Sep_core.Randomized.check} with escalating walk
      counts until the predicted condition fires;
    - {e coverage} — the {!Fuzz} corpus engine over {e workloads}
      (generated per-regime programs plus an input schedule) on the mutant
      scenario's topology, stopping when the predicted condition fires and
      then shrinking the killing workload to a minimal program.

    The catalogue predicts a primary condition per bug; a bug counts as
    killed only when {e that} condition fails, so the table doubles as a
    check that each of the six conditions retains discriminating power
    under every strategy. *)

module Colour = Sep_model.Colour
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Mutants = Sep_core.Mutants
module Separability = Sep_core.Separability
module Randomized = Sep_core.Randomized

val bug_name : Sue.bug -> string
(** The kebab-case rendering of {!Sue.pp_bug}. *)

val bug_of_name : string -> Sue.bug option

(** {1 Workloads} *)

type workload = {
  wl_progs : (Colour.t * Gen.action list) list;  (** per-regime action programs *)
  wl_sched : Fuzz.schedule;
}
(** What the coverage strategy fuzzes: every regime's program (in the
    {!Gen.action} vocabulary, so it shrinks cleanly) plus the external
    input schedule driven at the resulting configuration. *)

val workload_instrs : workload -> int
(** Total machine words of all rendered regime programs — the size that
    killing workloads are minimized against. *)

(** {1 Kill records} *)

type strategy =
  | Exhaustive
  | Randomized
  | Coverage

val strategy_name : strategy -> string

type kill = {
  kl_bug : Sue.bug;
  kl_scenario : string;
  kl_strategy : strategy;
  kl_detected : bool;  (** the predicted condition fired *)
  kl_condition : int;  (** the predicted condition, 1–6 *)
  kl_states : int;  (** states examined by the detecting (or final) check *)
  kl_checks : int;  (** condition instances evaluated by that check *)
  kl_execs : int;  (** runs performed: 1, walks sampled, or fuzz executions *)
  kl_workload : workload option;  (** coverage only: the minimized killing workload *)
}

val kill_to_json : kill -> Sep_util.Json.t
(** The ["fuzz-kill"] record. *)

val pp_kill : Format.formatter -> kill -> unit

val coverage_kill :
  ?impl:Sue.impl -> ?jobs:int -> seed:int -> budget:int -> Mutants.expectation -> kill
(** Coverage-guided workload fuzz with early stop on detection; the
    killing workload is shrunk ({!Shrink.minimize}) before being
    recorded. [kl_execs] is the number of workload executions spent.
    [jobs] is the {!Fuzz.engine_exec} execution parallelism. *)

val kill_table : ?impl:Sue.impl -> ?jobs:int -> seed:int -> budget:int -> unit -> kill list
(** All three strategies over the whole catalogue, exhaustive first.
    Each (mutant, strategy) cell is one task of a {!Sep_par.Par.map} over
    up to [jobs] domains (inner engines then run sequentially); the table
    is bit-identical for any job count. *)

(** {1 The fuzz campaign} *)

type campaign = {
  cg_seed : int;
  cg_budget : int;
  cg_results : Fuzz.scenario_result list;  (** one per scenario, in order *)
  cg_kills : kill list;
}

val campaign :
  ?impl:Sue.impl -> ?jobs:int -> seed:int -> budget:int -> Sep_core.Scenarios.instance list ->
  campaign
(** [rushby fuzz]: {!Fuzz.fuzz_scenario} on each scenario, then
    {!kill_table}. *)

val clean : campaign -> bool
(** Every condition and solo isolation held on every corpus member. *)

val all_killed : campaign -> bool

val minimal : campaign -> bool
(** Every killing workload is within 10 instructions. *)

val campaign_lines : campaign -> Sep_util.Json.t list
(** Each scenario's {!Fuzz.scenario_result_lines}, one ["fuzz-kill"] line
    per kill, then one ["fuzz-summary"]. *)

(** {1 Regression corpus} *)

type corpus_case = {
  cc_bug : Sue.bug;
  cc_scenario : string;
  cc_seed : int;  (** the {!Fuzz.check_schedule} seed for replay *)
  cc_scrambles : int;
  cc_condition : int;  (** the condition the schedule makes fail *)
  cc_schedule : Fuzz.schedule;
}
(** A seed for [test/corpus/]: a minimized input schedule that makes the
    named bug's predicted condition fail on its catalogue scenario — and
    that the fixed kernel survives. *)

val corpus_case : ?impl:Sue.impl -> seed:int -> Mutants.expectation -> corpus_case option
val corpus_case_to_json : corpus_case -> Sep_util.Json.t
val corpus_case_of_json : Sep_util.Json.t -> (corpus_case, string) result

val replay_corpus_case : ?impl:Sue.impl -> corpus_case -> (unit, string) result
(** [Ok ()] iff the fixed kernel verifies under the case's schedule {e
    and} the seeded bug still makes the recorded condition fail. *)

(** {1 Minimizing randomized counterexamples} *)

type minimized = {
  mz_conditions : int list;  (** failing conditions the schedule reproduces *)
  mz_schedule : Fuzz.schedule;
  mz_seed : int;  (** {!Fuzz.check_schedule} seed for replay *)
  mz_scrambles : int;
  mz_shrink_steps : int;
}

val minimize_randomized :
  ?bugs:Sue.bug list -> ?impl:Sue.impl -> ?params:Randomized.params -> seed:int ->
  inputs:Sue.input list -> conditions:int list -> Sep_hw.Isa.stmt list Config.t ->
  minimized list
(** When {!Randomized.check} fails, recover small standalone
    counterexamples: replay the walks the failing run executed (same
    [params] and [seed], hence the same schedules), find for each failing
    condition a walk that reproduces it under {!Fuzz.check_schedule}
    (escalating the scramble count if needed, falling back to fresh
    generated schedules), and shrink it. Conditions nothing reproduces
    are omitted; duplicate minimized schedules are merged. *)
