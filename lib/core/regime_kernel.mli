(** The behavioural separation kernel.

    Hosts the same event-driven components as the physically distributed
    substrate ({!Sep_distributed.Net}), but inside one "processor": the
    kernel owns the channel buffers, fields external inputs into
    per-regime queues (its interrupt-forwarding role), and rotates the
    processor round-robin — performing an explicit context switch per
    quantum, which it counts. Regimes interact with nothing except the
    events the kernel hands them; the kernel understands nothing of what
    the messages mean. Policy enforcement is not its concern.

    The delivery discipline matches {!Sep_distributed.Net} exactly —
    external inputs first, then at most one already-in-flight message per
    incoming channel in channel order, per regime visit, regimes in
    topology order — so that per-colour observable traces are comparable
    across substrates (experiment E7): a regime cannot distinguish this
    shared implementation from a machine of its own. *)

type t

type bug =
  | Misdeliver  (** channel messages are handed to the regime after the intended receiver *)
  | Duplicate_delivery  (** every delivered channel message is delivered twice *)
  | Drop_alternate  (** every second channel send is silently discarded *)
      (** Seedable kernel flaws. A separation kernel's defining property is
          indistinguishability from the distributed system; these bugs
          exist to show that the trace-equivalence check of experiment E7
          actually detects a kernel that fails at its one job. *)

val pp_bug : Format.formatter -> bug -> unit
val all_bugs : bug list

val build : ?bugs:bug list -> Sep_model.Topology.t -> t
(** Channel buffers are sized by wire capacities; cut wires are honoured
    (sends accepted, never delivered). *)

val step : t -> externals:(Sep_model.Colour.t * Sep_model.Component.message) list -> unit
(** One full round-robin rotation: every regime receives one quantum. *)

val run :
  t -> steps:int -> externals:(int -> (Sep_model.Colour.t * Sep_model.Component.message) list) ->
  unit

val trace : t -> Sep_model.Colour.t -> Sep_model.Component.obs list
val outputs : t -> Sep_model.Colour.t -> Sep_model.Component.message list

val context_switches : t -> int
(** SWAPs performed so far. *)

val messages_copied : t -> int
(** Channel messages moved through kernel buffers (copy-in plus
    copy-out). *)

val buffered : t -> int
(** Messages currently held in kernel channel buffers. *)

val drops : t -> int
(** Messages dropped against full kernel buffers. *)

(** {1 State observation}

    Read-only views of the kernel's internal state, exposed so the
    refinement checker ({!Sep_refine}) can compare it against the
    behavioural specification after every rotation. *)

val chan_count : t -> int

val chan_buffer : t -> int -> Sep_model.Component.message list
(** Contents of one kernel channel buffer, oldest first. *)

val current_colour : t -> Sep_model.Colour.t
(** The regime holding the processor. *)
