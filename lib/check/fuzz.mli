(** Coverage-guided fuzzing of the SUE kernel.

    The coverage signal is the PR-1 telemetry vocabulary: the {!Sue.kstats}
    counters (bucketed by binary order of magnitude) and the
    {!Sep_core.Ktrace} event kinds observed during a run, enriched with the
    colour / device / trap number they concern, plus each regime's final
    status. An input schedule that lights a {e new} key joins the corpus;
    mutation draws from corpus members. Every executed schedule is also
    checked against the six Proof-of-Separability conditions over its
    sampled states (walk states plus scrambled Phi-partners), and every
    corpus member additionally against cut-wire solo isolation
    ({!Diff.solo_check}).

    Everything is seeded: the same seed reproduces the same corpus, the
    same keys and the same JSONL report, byte for byte. *)

module Colour = Sep_model.Colour
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Isa = Sep_hw.Isa
module Separability = Sep_core.Separability

type schedule = Sue.input list
(** One external-input schedule: step [n] delivers element [n] (the kernel
    then settles on empty input). *)

val schedule_to_json : schedule -> Sep_util.Json.t
val schedule_of_json : Sep_util.Json.t -> (schedule, string) result

(** {1 One execution} *)

type exec = {
  ex_keys : string list;  (** sorted, duplicate-free coverage keys *)
  ex_report : Separability.report;  (** the six conditions over the sampled states *)
}

val execute :
  ?bugs:Sue.bug list -> ?impl:Sue.impl -> ?scrambles:int -> ?settle:int -> seed:int ->
  alphabet:Sue.input list -> Isa.stmt list Config.t -> schedule -> exec
(** Run once, collecting coverage keys and the six-condition report over
    the run's sampled states. *)

val check_schedule :
  ?bugs:Sue.bug list -> ?impl:Sue.impl -> ?scrambles:int -> ?settle:int -> seed:int ->
  alphabet:Sue.input list -> Isa.stmt list Config.t -> schedule -> Separability.report
(** Just the condition report of {!execute}. *)

type online = {
  on_report : Separability.report;
      (** equal to {!check_schedule}'s on a clean run; on a violating one
          the failures come in another order and both are capped *)
  on_first_violation : (int * Separability.failure) option;
      (** the kernel step whose state sample first violated, and the failure *)
}

val check_schedule_online :
  ?bugs:Sue.bug list -> ?impl:Sue.impl -> ?scrambles:int -> ?settle:int -> seed:int ->
  alphabet:Sue.input list -> Isa.stmt list Config.t -> schedule -> online
(** {!check_schedule} through the {!Sep_core.Monitor}: the same state
    sample, from the same generator, streams through the incremental
    checker with per-step attribution, so a violating schedule is pinned
    to the first kernel step (0 = initial state, [n] = after step [n])
    whose sample exposes it. *)

val mutate_schedule : alphabet:Sue.input list -> max_len:int -> Sep_util.Prng.t -> schedule -> schedule
(** One corpus mutation: append, insert, delete, replace or duplicate a
    tail of alphabet elements. *)

(** {1 The corpus engine} *)

type 'a entry = {
  en_id : int;  (** execution index that admitted this input *)
  en_input : 'a;
  en_new_keys : string list;  (** the keys this input lit first *)
}

type 'a campaign = {
  cp_seed : int;
  cp_budget : int;
  cp_execs : int;  (** executions actually performed *)
  cp_entries : 'a entry list;  (** the corpus, admission order *)
  cp_keys : string list;  (** all keys lit, sorted *)
  cp_stopped : bool;  (** the [stop] predicate ended the campaign early *)
}

val engine_exec :
  ?jobs:int -> seed:int -> budget:int -> seeds:'a list ->
  mutate:(Sep_util.Prng.t -> 'a -> 'a) -> exec:('a -> 'r) -> keys_of:('r -> string list) ->
  ?stop:('a -> 'r -> bool) -> ?witness:('a -> 'r -> unit) -> unit -> 'a campaign
(** The generic corpus loop, split for deterministic parallelism: [exec]
    (which must be pure — it runs on worker domains) executes one input; a
    sequential admission pass then walks results in generation order,
    calling [witness] (side effects welcome — always the spawning domain),
    admitting inputs whose [keys_of] coverage includes an unseen key, and
    checking [stop], which ends the campaign early (the triggering input
    is recorded in the corpus).

    Candidates are generated a {e fixed-width batch} at a time — width 8,
    independent of [jobs] — sequentially from the engine PRNG against the
    corpus snapshot at batch start, then executed on up to [jobs] domains
    ({!Sep_par.Par.map}, default {!Sep_par.Par.default_jobs}). The
    campaign, including corpus and witness order, is therefore
    bit-identical for any job count. Mutation draws are round-robin
    biased toward recent admissions, and the loop runs until [budget]
    executions are spent. *)

val engine :
  seed:int -> budget:int -> seeds:'a list -> mutate:(Sep_util.Prng.t -> 'a -> 'a) ->
  coverage:('a -> string list) -> ?stop:('a -> bool) -> unit -> 'a campaign
(** {!engine_exec} at [jobs = 1] with [exec = coverage] — for callers
    whose coverage function has side effects and so cannot cross domains.
    Executions happen batchwise, so [coverage] may run on inputs the
    budget or a [stop] later discards. *)

(** {1 Fuzzing a scenario} *)

type failure = {
  fl_schedule : schedule;
  fl_conditions : int list;  (** failing conditions, when the report failed *)
  fl_isolation : (Colour.t * int * string) list;  (** solo-isolation divergences *)
}

type scenario_result = {
  sr_label : string;
  sr_seed : int;
  sr_campaign : schedule campaign;
  sr_failures : failure list;  (** empty on a correct kernel *)
}

val fuzz_scenario :
  ?bugs:Sue.bug list -> ?impl:Sue.impl -> ?check_isolation:bool -> ?jobs:int -> seed:int ->
  budget:int -> Sep_core.Scenarios.instance -> scenario_result
(** Coverage-guided fuzz of one scenario: seeds are the empty schedule,
    each single alphabet element and a cycling drip; every execution is
    condition-checked, every corpus member isolation-checked (unless
    [check_isolation] is false). Executions and isolation checks run on
    up to [jobs] domains; the result is bit-identical for any job
    count. *)

val scenario_result_lines : scenario_result -> Sep_util.Json.t list
(** One [fuzz-corpus] line per corpus entry, then one [fuzz-scenario]
    summary line. Deterministic for a fixed seed. *)

val scenario_result_to_jsonl : scenario_result -> string
(** {!scenario_result_lines} as JSON Lines text. *)

(** {1 Crash-restart exploration}

    The recovery subsystem widens the state space the six conditions must
    cover: parked states, restored states, and everything a supervisor
    does in between. This fuzzer explores that space: inputs pair an
    external schedule with {e crash points} (step, victim) — a save-area
    corruption that parks the victim at its next switch — and every run
    executes under a {!Sep_recover.Recover} supervisor, so coverage keys
    like [e:restarted:*] and [k:restarts:*] pull the corpus toward
    interesting crash-restart interleavings. *)

type crash = int * Colour.t
(** Corrupt the victim's save area immediately before this step. *)

type recovery_input = {
  ri_sched : schedule;
  ri_crashes : crash list;
}

type recovery_failure = {
  rf_schedule : schedule;
  rf_crashes : crash list;
  rf_conditions : int list;
}

type recovery_result = {
  rv_label : string;
  rv_seed : int;
  rv_campaign : recovery_input campaign;
  rv_failures : recovery_failure list;  (** empty when recovery preserves separability *)
}

val fuzz_recovery :
  ?policy:Sep_recover.Recover.policy -> ?jobs:int -> seed:int -> budget:int ->
  Sep_core.Scenarios.instance -> recovery_result
(** Coverage-guided crash-restart fuzz of one scenario: seeds crash each
    colour alone and all colours together over a drip schedule; mutation
    flips between perturbing the schedule and perturbing the crash
    points. *)
