(** Seeded, reproducible schedules of transient hardware faults.

    A fault is a single physical event — a flipped memory bit, a corrupted
    save-area slot, a glitched interrupt line, a device that dies — located
    in {e some regime's domain} (its partition, its kernel record, its
    devices, its channel ends) or in the kernel's own fencing. A plan
    schedules faults at instruction-step boundaries; the stepping wrapper
    in {!Campaign} applies them between instructions, exactly where a real
    transient would strike relative to the simulated machine's atomicity.

    Plans are pure data: generating them commits to nothing. The same
    [seed] always yields the same plans against the same configuration, so
    every campaign finding is reproducible from its report line. *)

module Colour = Sep_model.Colour
module Config = Sep_core.Config

type chan_end =
  | Send_end  (** the buffer SEND fills — the sender's domain *)
  | Recv_end  (** the buffer RECV drains (distinct when cut) — the receiver's domain *)

type fault =
  | Mem_flip of { colour : Colour.t; offset : int; bit : int }
      (** flip one bit of one word of a regime's memory partition *)
  | Saved_reg_flip of { colour : Colour.t; slot : int; bit : int }
      (** corrupt a slot (0-7 registers, 8 flags) of a register save area
          — the SWAP-boundary register-corruption fault *)
  | Guard_smash of { index : int }
      (** overwrite a guard word (fence corruption; no regime's domain) *)
  | Chan_flip of { chan : int; which : chan_end; word : int; bit : int }
      (** flip a bit of a channel ring buffer (head, count or data word) *)
  | Rx_latch_flip of { device : int; bit : int }
      (** flip a bit of an Rx device's data latch *)
  | Drop_input of { device : int }
      (** lose the next external arrival addressed to this device *)
  | Spurious_irq of { device : int }
      (** assert an interrupt line no device event justifies *)
  | Duplicate_irq of { device : int }
      (** re-assert the line right after the step, duplicating a fielded
          interrupt *)
  | Stuck_device of { device : int }
      (** the device dies: status forced idle and arrivals lost from the
          fault onward *)
  | Shard_crash of { shard : int }
      (** a whole federation node power-fails ({!Sep_core.Sue.crash}):
          every regime hosted on it stops until the supervisor's failover *)
  | Link_partition of { link : int; window : int }
      (** a physical inter-shard line is severed for [window] steps and
          then heals ({!Sep_distributed.Net.set_wire_up}) *)
  | Frame_tamper of { link : int }
      (** every frame in flight on an inter-shard line is forged; the
          federation's frame checksums reject them on arrival *)

type node_space = {
  ns_shards : int;  (** federation nodes a crash can hit *)
  ns_links : int;  (** physical wires a partition or tampering can hit *)
}
(** What the node-level faults range over. The shard and link indices in
    generated faults are drawn below these bounds; the federation driver
    maps them onto its own topology. *)

type t = {
  label : string;
  faults : (int * fault) list;  (** (step, fault), ascending by step *)
}
(** One schedule: each fault strikes immediately before its step executes
    ([Duplicate_irq] re-asserts after it). *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Sep_util.Json.t

val target : 'p Config.t -> fault -> Colour.t option
(** The colour whose domain the fault strikes: the partition or save-area
    owner, the device owner, the channel endpoint owning the corrupted
    buffer. [None] for {!Guard_smash} — the fence belongs to the kernel,
    so {e every} colour's trace must survive it — and for the node-level
    faults, whose target is a {e set} of colours that only the federation's
    placement knows ({!Sep_fed} computes it: everything hosted on the
    crashed shard, every receiver routed over the severed or forged
    link). *)

val generate : ?nodes:node_space -> seed:int -> steps:int -> count:int -> 'p Config.t -> t list
(** [count] single-fault plans against a configuration, each striking at a
    uniform step in [\[1, steps-1)] with a fault kind and location drawn
    uniformly from what the configuration offers (partitions and save
    areas always; channel, Rx-latch, interrupt and stuck-device faults
    only when the configuration has channels or devices; shard crashes,
    link partitions over a 4–15 step window, and frame tampering only
    when [nodes] opens the node-level space). Deterministic in [seed];
    plans generated without [nodes] are unchanged by its existence, draw
    for draw. *)

val soak : nodes:node_space -> seed:int -> steps:int -> count:int -> 'p Config.t -> t list
(** [count] {e soak} plans: sustained, correlated node-level chaos over a
    long horizon ([steps] must be at least 256, typically thousands).
    Each plan draws one shape — repeated crashes of the {e same} shard,
    a flapping partition of the {e same} link, a burst of frame
    tampering, or a mixed storm pinned to one shard/link pair — with at
    least three node faults spread across the horizon, plus up to two
    ordinary machine-level faults as background noise. Windows are kept
    shorter than the spacing between strikes so the system is always
    mid-digestion, never handed overlapping copies of the same cut.
    Deterministic in [seed]. *)

val generate_multi :
  ?nodes:node_space ->
  seed:int -> steps:int -> count:int -> faults_per_plan:int -> 'p Config.t -> t list
(** Like {!generate} but each plan composes [faults_per_plan] independent
    faults, sorted ascending by step (several may share a step). The
    recovery campaign's stress schedules: enough simultaneous damage to
    park several regimes — or all of them, forcing a warm reboot.
    Deterministic in [seed]; distinct from the stream {!generate} draws. *)
