(** The physically distributed substrate: the paper's ideal.

    Each component runs on its own machine; wires are physical FIFO lines
    between boxes. There is no shared anything — isolation holds by
    construction, which is exactly why this substrate is the reference
    against which the separation kernel ({!Sep_core.Regime_kernel}) is
    compared (experiment E7).

    {b Delivery discipline} (shared with the kernel substrate so that
    per-colour observable traces are comparable): in each global step,
    components are visited in topology order; a visited component first
    receives its external inputs for the step (in the order given), then
    at most one message from each incoming wire in wire-id order — but
    only messages already in flight when the step began. A send onto a
    full wire is dropped (and counted); a send onto a cut wire is
    silently discarded. *)

type t

type link_model = {
  lm_seed : int;  (** PRNG seed driving the line faults (deterministic) *)
  lm_drop : int;  (** percent of frames (and acks) destroyed in transit *)
  lm_dup : int;  (** percent of frames duplicated on the line *)
  lm_reorder : int;  (** percent of frames spliced in ahead of the last in transit *)
}
(** A faulty physical line, percentages within [0..99]. *)

val default_link_model : link_model
(** seed 42, 10% drop, 5% dup, 5% reorder. *)

type link_stats = {
  ls_in_flight : int;  (** messages/frames currently on the wires *)
  ls_drops : int;  (** sends dropped against full or absent wires *)
  ls_lossy_drops : int;  (** frames and acks destroyed by the link model *)
  ls_retransmits : int;  (** frames resent after a timeout *)
  ls_acks : int;  (** acks emitted by receivers *)
  ls_backoff_ceiling : int;  (** timeouts that expired already at the backoff cap *)
  ls_partition_drops : int;  (** frames and acks lost to partitioned wires *)
}

val build : ?link:link_model -> Sep_model.Topology.t -> t
(** Without [?link], wires are the perfect FIFO lines described above.
    With a link model, every (non-cut) wire becomes a {e faulty} line —
    frames are destroyed, duplicated and reordered at the given rates,
    deterministically from [lm_seed] — carried by a reliable protocol:
    sequence-numbered frames, a go-back-N sender window equal to the
    wire's capacity, cumulative acks on an equally lossy reverse line, and
    timeout retransmission with exponential backoff capped at 8 times the
    base timeout. The receiver delivers to its component exactly the
    in-order message sequence the sender accepted — so the substrate keeps
    its meaning as the distributed ideal, message loss included. Sends
    onto a reliable wire are never dropped for backpressure (the pending
    queue is the sending box's buffer; the window is the flow control);
    sends onto cut wires are still silently discarded, preserving the
    cut-wire isolation argument. *)

val step : t -> externals:(Sep_model.Colour.t * Sep_model.Component.message) list -> unit

val run :
  t -> steps:int -> externals:(int -> (Sep_model.Colour.t * Sep_model.Component.message) list) ->
  unit
(** [steps] iterations of {!step}; [externals n] supplies step [n]'s
    inputs. *)

(** Each box keeps a log of everything its component saw and did. The log
    runs from the box's last {!hand_over} — or from {!build}, if there
    has been none — so a net that is never handed over keeps the whole
    run, and a caller that hands every box over after each {!step} keeps
    nothing between steps: its memory and its per-step cost follow the
    traffic of the step, not the age of the run. *)

val trace : t -> Sep_model.Colour.t -> Sep_model.Component.obs list
(** Everything the component saw and did since its last {!hand_over}, in
    order. Does not consume the log. Raises [Not_found] on a colour that
    is not a box of the topology. *)

val outputs : t -> Sep_model.Colour.t -> Sep_model.Component.message list
(** Just the [Output] actions of {!trace}. *)

val hand_over : t -> Sep_model.Colour.t -> Sep_model.Component.obs list
(** {!trace}, and the box then forgets it: the next hand-over (or
    {!trace}) starts empty. Concatenating successive hand-overs gives the
    {!trace} of the same run never handed over; a second hand-over with
    no {!step} in between returns [[]]. Raises [Not_found] on an unknown
    colour. *)

val in_flight : t -> int
(** Messages currently buffered in wires. *)

val drops : t -> int
(** Messages dropped against full wires so far. *)

val telemetry : t -> Sep_obs.Telemetry.t
(** This net's metric registry: the histogram ["net.latency.steps"] —
    end-to-end latency in net steps of every word carried by a reliable
    link, from send-accept to in-order delivery (retransmissions
    included), with p50/p95/p99 via {!Sep_obs.Telemetry.quantile} — and
    the gauge ["net.retransmit_queue"], the number of frames sitting in
    sender windows awaiting acks, refreshed every {!step}. The gauge is
    mirrored onto the calling domain's {!Sep_obs.Span.local} registry so
    it appears in process-wide snapshots. When causal tracing
    ({!Sep_obs.Trace}) is enabled, every reliable send opens a flow edge
    that its in-order delivery closes — the happens-before edge across
    boxes. *)

val link_stats : t -> link_stats
(** Current line statistics. Without a link model the protocol counters
    ([ls_lossy_drops], [ls_retransmits], [ls_acks], [ls_backoff_ceiling])
    stay 0. *)

val link_stats_to_json : link_stats -> Sep_util.Json.t
(** [{"in_flight", "drops", "lossy_drops", "retransmits", "acks",
    "backoff_ceiling", "partition_drops"}]. *)

val pp_link_stats : Format.formatter -> link_stats -> unit

val set_wire_up : t -> wire:int -> bool -> unit
(** Partition (or heal) one physical line. Taking a wire down loses
    everything in transit on it and discards every frame and ack placed
    while it is down (counted in [ls_partition_drops]); the endpoints are
    not told. A reliable wire's sender keeps retransmitting with its
    backoff capped at the ceiling — a bounded rate, not a storm — and
    go-back-N replays the lost tail once the wire is back up, so a healed
    partition costs latency, never words. Raises [Invalid_argument] on an
    unknown wire id. *)

val wire_up : t -> wire:int -> bool
(** Whether the line is currently up (the default). *)

val tamper :
  t -> wire:int -> (Sep_model.Component.message -> Sep_model.Component.message option) -> int
(** Fault injection on one physical line: apply [f] to every message
    currently in flight on the wire, in order — [Some m'] replaces the
    message, [None] destroys it (counted in {!drops}). Returns how many
    messages were altered or destroyed. The blast radius is structurally
    the wire itself: no other line, box or trace can be touched, which is
    the distributed ideal's fault-containment argument. On a reliable
    wire the frames in transit are tampered: a destroyed frame is
    recovered by retransmission (the protocol recovers loss, not
    forgery). Raises [Invalid_argument] on an unknown wire id. *)
