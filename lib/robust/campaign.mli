(** Fault-injection campaigns: fault containment as a corollary of
    separation.

    Rushby's argument makes one processor indistinguishable from a
    physically distributed system — and in the distributed ideal a
    hardware fault inside one box cannot corrupt another box. The
    campaign tests that corollary directly: it runs every {!Fault_plan}
    against a fault-free reference of the same scenario and classifies
    each outcome by {e differential per-colour trace comparison}.

    {b Observable trace.} A colour's observable trace is the sequence of
    words on its Tx wires, {e in order but not indexed by step}. Parking
    or slowing one regime redistributes the processor and shifts every
    other regime's step timing; the paper explicitly excludes such timing
    channels from separability, so the comparison tolerates one trace
    being a prefix of the other (the same behaviour, observed for more or
    fewer of its steps) and flags only genuine content divergence. For
    the same reason external input is {e flow-controlled}: a dripped word
    queues until its Rx latch is free, so every regime consumes the same
    word sequence however the processor is shared — otherwise the
    external world doubles as a clock and re-imports the excluded timing
    channel through input sampling.

    {b Classification.} For a fault targeting colour [v] (see
    {!Fault_plan.target}): {e separation-violating} if any colour other
    than [v] diverges; otherwise {e recovered-safe} if the recovery
    supervisor acted (a restart or warm reboot appears in the audit log)
    and no regime is still parked at the end — the fail-operational
    outcome; otherwise {e detected-safe} if the kernel's hardening
    audited a corruption (save-area parks, guard breaches, checkpoint
    corruption, kernel panics — watchdog fires are liveness events and
    are reported separately); otherwise {e masked}. Perturbation of [v]
    itself is allowed and recorded: in the distributed ideal too, a fault
    inside a box may corrupt that box. *)

module Colour = Sep_model.Colour
module Sue = Sep_core.Sue
module Scenarios = Sep_core.Scenarios

type outcome =
  | Masked
  | Detected_safe
  | Recovered_safe
  | Violating

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 The outcome lattice}

    The ranking and tally every campaign shares (this one,
    {!Sep_fed.Fed_campaign}, {!Sep_svc.Svc_campaign}), and the
    prefix-tolerant trace comparison every differential check shares. *)

val outcome_of : violating:bool -> recovered:bool -> noticed:bool -> outcome
(** The precedence [Violating > Recovered_safe > Detected_safe > Masked]:
    the highest-ranked outcome whose evidence is present. *)

val tally : ('a -> outcome) -> 'a list -> int * int * int * int
(** (masked, detected-safe, recovered-safe, violating) over the cases. *)

val is_prefix : 'a list -> 'a list -> bool
(** [is_prefix a b]: [a] is an initial segment of [b]. *)

val prefix_compatible : 'a list -> 'a list -> bool
(** One sequence is a prefix of the other: the same behaviour observed
    for more or fewer of its steps. *)

val colour_diverged :
  owner:(int -> Colour.t) -> (int * 'a list) list -> (int * 'a list) list -> Colour.t -> bool
(** [colour_diverged ~owner reference faulty c]: some device [owner]
    assigns to [c] carries words in the [faulty] transcript that are not
    {!prefix_compatible} with the [reference] one. Both transcripts list
    the same devices in the same order. *)

(** {1 Driving a kernel}

    Helpers shared by the code that steps kernels: this campaign, the
    federation ({!Sep_fed.Fed}, which steps its shards its own way) and
    the differential checks ({!Sep_check.Diff}). *)

val inert_except :
  (Colour.t -> bool) -> Sep_hw.Isa.stmt list Sep_core.Config.t ->
  Sep_hw.Isa.stmt list Sep_core.Config.t
(** The configuration with every regime whose colour fails the test
    running the inert yield loop [loop: Trap 0; branch loop] instead:
    partitions, devices and channels stay where they were. *)

val remove_one : 'a -> 'a list -> 'a list
(** The list without its first element equal to the given one. *)

val drive :
  ?step:(int -> Sue.input -> (int * int) list) -> ?after:(unit -> unit) -> Sue.t -> steps:int ->
  (int -> Sue.input) -> (int * int list) list
(** Run [steps] steps under flow-controlled delivery: the words arriving
    at step [n] (ids outside the machine dropped) queue per device, and
    each step delivers one word to every device whose Rx latch is free.
    [step n input] makes the step (default {!Sue.step}); [after] runs
    after each. Returns, for every device id, the words emitted on it in
    order. *)

val split_audit : Sue.kernel_fault list -> Sue.kernel_fault list * Sue.kernel_fault list * int
(** An audit log three ways: recovery actions (restarts and warm
    reboots), corruption detections (everything but watchdog fires) and
    the number of watchdog fires. *)

type case = {
  plan : Fault_plan.t;
  target : Colour.t option;
  outcome : outcome;
  victim_perturbed : bool;  (** the target's own trace or final status changed *)
  detections : Sue.kernel_fault list;  (** corruption detections (audit log) *)
  recoveries : Sue.kernel_fault list;  (** restarts and warm reboots (audit log) *)
  watchdog_delta : int;  (** watchdog fires beyond the reference run's *)
}

type scenario_report = {
  label : string;
  seed : int;
  steps : int;
  watchdog : int option;  (** armed for both reference and faulty runs *)
  cases : case list;
}

type report = {
  rp_seed : int;
  rp_scenarios : scenario_report list;
}

val subjects : Scenarios.instance list
(** The scenario catalogue under test: {!Scenarios.all} plus
    ["greedy-watchdog"], the preemptive instance re-hosted without a
    quantum so only the watchdog keeps both regimes live. *)

val strike : Sue.t -> Fault_plan.fault -> unit
(** Apply a plan's machine-level fault to a kernel, between instructions:
    a flipped bit in a partition, save area, guard word, channel ring or
    Rx latch, or a spurious interrupt. The input-path faults
    ([Drop_input], [Duplicate_irq], [Stuck_device]) act on the stepping
    wrapper's arrivals and the node-level ones on a federation, so here
    they do nothing. *)

type monitored = {
  mc_case : case;
  mc_first_violation : (int * Sep_core.Separability.failure) option;
      (** the kernel step (as counted by the watch) at which the online
          monitor first flagged a violation, [None] when the run stayed
          separable *)
  mc_deep_checks : int;  (** observations that escalated to a deep check *)
}

val monitored_case :
  ?watchdog:int ->
  ?recover:Sep_recover.Recover.policy ->
  ?period:int ->
  steps:int -> plan:Fault_plan.t -> Scenarios.instance -> monitored
(** One fault-plan replay with an online {!Sep_core.Monitor.watch}
    attached: {!Sep_core.Monitor.observe} runs after every kernel step,
    so a fault that breaks a separability condition is flagged at the
    step the kernel's own audit detects it (or within [period] steps,
    default 32, for silent corruption). The differential classification
    of the case is unchanged — the monitor adds step attribution to
    it. *)

val run : ?jobs:int -> seed:int -> steps:int -> count:int -> unit -> report
(** The full fail-safe campaign over {!subjects}, no recovery — exactly
    PR 2's campaign (each scenario's plans derive from [seed] and its
    label, so scenarios are independently reproducible). Cases replay in
    parallel on up to [jobs] domains (default
    {!Sep_par.Par.default_jobs}); plan generation and replay are
    deterministic, so the report is bit-identical for any job count. *)

val run_recovery :
  ?policy:Sep_recover.Recover.policy -> ?jobs:int -> seed:int -> steps:int -> count:int ->
  unit -> report
(** The fail-operational campaign: same subjects and single-fault plans
    as {!run} plus [count/2] three-fault stress plans per scenario, all
    under a recovery supervisor. The fail-operational claim is that every
    case that parked a regime now ends {!Recovered_safe} — and none ends
    {!Violating}. *)

val holds : report -> bool
(** The headline theorem: no injected fault produced a
    separation-violating outcome. *)

val totals : report -> int * int * int * int
(** (masked, detected-safe, recovered-safe, violating) across all
    scenarios. *)

val report_lines : report -> Sep_util.Json.t list
(** One [{"kind": "fault-case", "scenario", "seed", "steps", "plan",
    "target", "outcome", "victim_perturbed", "detections", "recoveries",
    "watchdog_delta"}] line per case, then one
    [{"kind": "campaign-summary", ...}] line with the totals and the
    headline verdict. *)

val report_to_jsonl : report -> string
(** {!report_lines} as JSON Lines text. *)

(** {1 The distributed baseline}

    The same argument on {!Sep_dist.Net}, where containment holds by
    construction: tampering with a physical wire can reach only the boxes
    that wire connects. *)

type dist_report = {
  dr_cases : int;
  dr_affected : int;  (** messages altered or destroyed by tampering *)
  dr_contained : bool;  (** unconnected boxes' traces all unchanged *)
}

val run_distributed : seed:int -> steps:int -> count:int -> dist_report
(** A relay [A -> B] plus an isolated box [C]: each case corrupts or
    destroys in-flight messages on the A-B wire at a seeded step and
    checks that A's and C's observable traces equal the tamper-free
    reference — the structural form of the containment the kernel has to
    earn. *)

val dist_to_json : dist_report -> Sep_util.Json.t
