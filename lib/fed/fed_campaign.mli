(** The federated chaos campaign: node-level fault injection classified
    by differential per-colour trace comparison.

    {!Sep_robust.Campaign}'s argument, one level up: in the distributed
    ideal, a crashed box, a severed line or a forged frame cannot corrupt
    any box it does not house or connect. The federation must earn the
    same containment — every injected node fault is replayed against a
    fault-free reference and classified with {!Sep_robust.Campaign}'s
    outcome lattice, with the target now a {e set} of colours computed
    from the placement {e and the channel graph}: because federation
    channels actually deliver (the single-kernel campaign runs with every
    channel cut), a corrupted word legitimately reaches whoever the
    configuration lets the victim talk to, so data-corrupting faults
    close their target set over downstream declared channels — Rushby's
    property is channel control, not silence. Delay-only faults stay
    un-closed: a crash targets exactly what its shard hosts (checkpointed
    replay re-sends the same words, merely later), and a partition
    targets {b nobody} — the reliable links owe delay-only semantics, so
    any divergence at all under a severed wire is a violation.

    Every faulty replay runs with the online separability monitor
    attached to all shards (unless disabled); [monitor_clean] is the
    second verdict alongside [holds]. *)

module Colour = Sep_model.Colour
module Fault_plan = Sep_robust.Fault_plan
module Campaign = Sep_robust.Campaign

type case = {
  fc_plan : Fault_plan.t;
  fc_targets : Colour.t list;
      (** union of the plan's fault targets, closed downstream over
          declared channels for data-corrupting faults *)
  fc_outcome : Campaign.outcome;
  fc_victim_perturbed : bool;
  fc_detections : int;  (** kernel-level corruption detections *)
  fc_recoveries : int;  (** restarts and warm reboots across shards *)
  fc_frame_rejects : int;
  fc_node_events : int;
  fc_deep_checks : int;
  fc_first_violation : (int * int) option;  (** (shard, step) from the online monitor *)
}

type report = {
  fr_label : string;
  fr_seed : int;
  fr_steps : int;
  fr_cases : case list;
}

val targets_of : Fed.spec -> Fault_plan.t -> Colour.t list

val noticed : Fed.observation -> bool
(** The federation noticed a fault: a kernel-level corruption detection,
    a checksum-rejected frame, or the supervisor seeing a node down or
    quarantined. Injection events and routine heals do not count. *)

val recovered : Fed.observation -> bool
(** The federation recovered from a fault: a regime restart or warm
    reboot on some shard, or a node failover or rejoin. *)

val directed : Fed.spec -> steps:int -> Fault_plan.t list
(** Coverage floor independent of the seed: one crash per shard, one
    partition and one tamper per physical wire, striking at steps/3. *)

val plans : Fed.spec -> seed:int -> steps:int -> count:int -> Fault_plan.t list
(** {!directed} plans, then [count] seeded single-fault plans drawn over
    the widened node space, then [count/2] two-fault stress plans. *)

val run :
  ?jobs:int -> ?monitor:bool -> ?policy:Fed.policy -> seed:int -> steps:int -> count:int ->
  Fed.spec -> report
(** Replay every plan against the fault-free reference, in parallel over
    up to [jobs] domains; plan generation and replay are deterministic,
    so the report is identical for any job count. [monitor] (default
    true) attaches the online separability watch to every shard of every
    faulty replay. *)

val holds : report -> bool
(** No injected fault produced a separation-violating outcome. *)

val monitor_clean : report -> bool
(** The online monitor flagged no separability violation on any shard in
    any case. *)

val totals : report -> int * int * int * int
(** (masked, detected-safe, recovered-safe, violating). *)

val report_lines : report -> Sep_util.Json.t list
(** One ["fed-case"] line per case, then one ["fed-campaign-summary"]. *)

val report_to_jsonl : report -> string
(** {!report_lines} as JSON Lines text. *)
