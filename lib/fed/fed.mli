(** Fail-operational kernel federation: multi-shard SUE with crash and
    partition tolerance.

    The paper's central move is to treat one shared machine {e as if} it
    were a physically distributed system. This module composes the two
    artefacts the repository already has — the machine-level separation
    kernel ({!Sep_core.Sue}) and the physically distributed substrate
    ({!Sep_distributed.Net}) — into the configuration real secure systems
    actually ship: a {e federation} of shard kernels, each hosting a
    subset of the regimes, with the inter-shard channels carried over
    reliable go-back-N links while local channels stay in-kernel.

    {b Sharding.} Every shard is built from the full global configuration
    with non-hosted regimes replaced by an inert yield loop, so physical
    layout, global device ids and channel areas agree across shards (and
    with the monolithic ideal, which is what {!Sep_check.Diff} compares
    against). An inter-shard channel is {e cut} on every shard: its send
    end is drained by the source node's NIC onto a dedicated wire and its
    receive end — the wire-cutting argument's "never-fed second buffer" —
    is fed by the destination NIC. Frames carry an end-to-end checksum:
    the link protocol recovers loss; the checksum rejects forgery.

    {b Supervision.} A control node receives deterministic heartbeats
    from every shard. Silence past the timeout declares the shard down;
    an out-of-band power probe separates a {e crashed} node — warm-reboot
    it from its regimes' last checksummed checkpoints
    ({!Sep_core.Sue.warm_reboot}), within a node-reboot budget extending
    {!Sep_recover.Recover}'s discipline one level up — from a
    {e partitioned} one, whose regimes are parked at the federation
    boundary (external input held, event audited) until its heartbeats
    return. Because every checkpoint sits on an output-commit fence,
    crash-and-replay never duplicates or loses an observable effect:
    during any single-shard outage every surviving shard's per-colour
    trace is byte-identical to the fault-free run. *)

module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Abstract_regime = Sep_core.Abstract_regime
module Net = Sep_distributed.Net
module Recover = Sep_recover.Recover
module Fault_plan = Sep_robust.Fault_plan

(** {1 Specs} *)

type spec = {
  fs_label : string;
  fs_cfg : Isa.stmt list Config.t;
      (** the global configuration, channels {e uncut} — also the
          monolithic ideal the federation is differenced against *)
  fs_placement : (Colour.t * int) list;  (** colour -> shard, total on the regimes *)
  fs_alphabet : Sue.input list;  (** global input alphabet (global device ids) *)
}

val nshards_of : spec -> int
val nlinks_of : spec -> int
(** Physical wires: one per inter-shard channel (in channel order), then
    one heartbeat line per shard into the control node. *)

val hosted : spec -> int -> Colour.t list
(** The colours a shard hosts, in regime order. *)

val node_space : spec -> Fault_plan.node_space
(** The node-fault space this federation offers, for
    {!Fault_plan.generate}. *)

val wire_receiver : spec -> int -> Colour.t option
(** The colour whose words a physical wire carries ([None] for heartbeat
    lines) — the target-set computation for link faults: severing or
    forging a line can perturb at most its receiver. *)

val shard_config : spec -> int -> Isa.stmt list Config.t
(** The configuration one shard runs: full global layout, non-hosted
    regimes inert, inter-shard channels cut. *)

(** {1 Policy} *)

type policy = {
  fp_hb_period : int;  (** heartbeat every this many steps *)
  fp_hb_timeout : int;  (** silence beyond this declares a shard down *)
  fp_max_node_reboots : int;  (** whole-node failover budget, per shard *)
  fp_monitor_period : int;  (** online monitor deep-check period *)
  fp_regime : Recover.policy;  (** the per-shard regime-level supervisor *)
}

val default_policy : policy
(** period 2, timeout 12, 2 node reboots, monitor period 64,
    {!Recover.default_policy} per shard. *)

(** {1 Node events}

    The federation's audit trail, one level above the kernels' own audit
    logs: everything the supervisor saw and did, with the step it
    happened at. *)

type node_event =
  | Node_crashed of int  (** fault injection: the shard power-failed *)
  | Node_down_detected of int  (** heartbeat timeout expired *)
  | Node_failover of int * Colour.t list  (** warm-rebooted; these colours revived *)
  | Node_abandoned of int  (** node-reboot budget exhausted; stays dark *)
  | Node_quarantined of int * Colour.t list
      (** unreachable but powered: these colours parked at the boundary *)
  | Node_rejoined of int  (** heartbeats returned; quarantine lifted *)
  | Link_down of int  (** fault injection: wire partitioned *)
  | Link_healed of int  (** partition window elapsed *)
  | Link_tampered of int * int  (** fault injection: wire, frames forged *)
  | Frame_rejected of int
      (** a forged frame failed its checksum at this shard (-1: control node) *)

val pp_node_event : Format.formatter -> node_event -> unit
val node_event_to_json : node_event -> Sep_util.Json.t

(** {1 Building and running} *)

type t

val build : ?policy:policy -> ?plan:Fault_plan.t -> ?monitor:bool -> spec -> t
(** Assemble the federation: one {!Sue} kernel and one
    {!Recover} supervisor per shard, the inter-shard {!Net} (always with
    a zero-rate link model, so every line runs the reliable go-back-N
    protocol and partitions cost latency, never words), and the heartbeat
    supervisor. [plan] schedules faults — node-level ones
    ({!Fault_plan.Shard_crash}, {!Fault_plan.Link_partition},
    {!Fault_plan.Frame_tamper}) applied by this driver, machine-level
    ones applied at the hosting shard's kernel. [monitor] attaches an
    online separability watch ({!Sep_core.Monitor.watch}) to every shard.
    The watch rides its node: a power failure kills it with the kernel,
    and failover starts a fresh one — its bucket tables must not span
    the reboot, or post-rollback states would be compared against the
    discarded pre-crash timeline. A dead watch's deep-check count and
    any violation it had already flagged still reach {!finish}.
    Raises [Invalid_argument] on an invalid configuration, a placement
    missing a colour, or a heartbeat timeout below the period. *)

val step : t -> unit
(** One federation step: due heals and faults; NIC egress (channel-end
    drain plus heartbeat) for powered shards; one {!Net.step}; delivery
    parsing (checksum validation, heartbeat bookkeeping); ring injection;
    flow-controlled external input, one {!Sue.step}, a {!Recover.tick}
    and a monitor observation per powered shard; then the supervisor's
    timeout check. *)

val run : t -> steps:int -> unit

(** {1 Introspection} *)

val shards : t -> int
val links : t -> int
val kernel : t -> shard:int -> Sue.t
val net : t -> Net.t
val powered : t -> shard:int -> bool

(** The supervisor's view of one shard. *)
type shard_state =
  | Up
  | Quarantined
  | Abandoned

val shard_state : t -> shard:int -> shard_state
val step_no : t -> int
val events : t -> (int * node_event) list
val device_owner_colour : t -> int -> Colour.t

(** {1 Service-layer doors}

    {!Sep_svc} drives request/response traffic through the federation via
    these: words queued here enter the same flow-controlled per-device
    input path the drip alphabet uses (one word per step per free Rx
    latch, held at the boundary while the hosting shard is quarantined),
    and Tx words drain in device-step order. *)

val push_input : t -> device:int -> int list -> unit
(** Queue words (masked to machine width) for a global device's external
    input. Raises [Invalid_argument] on an unknown device. *)

val take_outputs : t -> (int * int) list
(** Drain the (device, word) outputs emitted since the last call, oldest
    first. Draining does not affect {!finish}'s per-device transcript. *)

(** {1 Observation} *)

type observation = {
  fob_outputs : (int * int list) list;  (** per global device, words in order *)
  fob_status : (Colour.t * Abstract_regime.status) list;  (** from the hosting shard *)
  fob_detections : Sue.kernel_fault list;  (** corruption detections, all shards *)
  fob_recoveries : Sue.kernel_fault list;  (** restarts and warm reboots, all shards *)
  fob_wd_fires : int;
  fob_events : (int * node_event) list;  (** the supervisor's audit trail *)
  fob_frame_rejects : int;  (** frames rejected by the end-to-end checksum *)
  fob_delivered : int;  (** channel words carried shard-to-shard *)
  fob_abandoned_nodes : int list;
  fob_gave_up : Colour.t list;  (** regime-level supervisor abandonments *)
  fob_stats : Net.link_stats;
  fob_deep_checks : int;  (** monitor observations escalated, all shards *)
  fob_first_violation : (int * int) option;
      (** earliest online separability violation: (shard, watch step);
          [None] when every shard stayed separable *)
}

val finish : t -> observation
(** Final guard sweeps and supervisor ticks on powered shards, then the
    collected observation (audit logs drained). *)
