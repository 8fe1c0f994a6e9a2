(** Causal tracing into a bounded flight recorder.

    Where {!Telemetry} aggregates and {!Span} times, [Trace] remembers
    {e individual} events in causal order: kernel steps, traps and
    regime swaps ({!Sep_core.Sue}), send→deliver link edges
    ({!Sep_distributed.Net}) and task boundaries ({!Sep_par.Par}).
    Events carry a category, a span/flow id and optional structured
    arguments; happens-before edges that cross layers (a channel word
    leaving one box and arriving at another, a task forked on one domain
    and joined on another) are expressed as {e flow} pairs sharing an id.

    The recorder is a fixed-capacity ring — the {e flight recorder}: in
    steady state it always holds the last [capacity] events, so when a
    kernel panics or the online monitor flags a separability violation,
    {!dump} writes the events leading up to the incident. Recording is
    globally switched and off by default; a disabled emit costs one
    atomic load and a branch, so instrumentation can sit on kernel hot
    paths. The ring is protected by a mutex: worker domains spawned by
    {!Sep_par} may emit concurrently.

    The export format is the Chrome [trace_event] JSON array (load it in
    [chrome://tracing] or Perfetto): phases [B]/[E] for durations, [i]
    for instants, [s]/[f] for flow edges, timestamps in microseconds
    since the trace epoch, thread id = the emitting domain. *)

type phase =
  | Begin  (** opens a duration slice; pair with [End] *)
  | End
  | Instant  (** a point event *)
  | Flow_start  (** the source of a happens-before edge (Chrome [s]) *)
  | Flow_end  (** the sink of the edge with the same [id] (Chrome [f]) *)

type event = {
  seq : int;  (** global emission order (monotone across domains) *)
  ts : float;  (** seconds since the trace epoch *)
  dom : int;  (** emitting domain id *)
  cat : string;  (** layer: ["sue"], ["net"], ["par"], ["monitor"], ... *)
  name : string;
  phase : phase;
  id : int;  (** span/flow id; [0] when the event is not part of an edge *)
  args : (string * Sep_util.Json.t) list;
}

val set_enabled : bool -> unit
(** Turn recording on or off (default: off). Enabling (re)starts the
    trace epoch when the ring is empty. *)

val enabled : unit -> bool

val set_capacity : int -> unit
(** Resize the ring (default 4096 events) and clear it. The capacity is
    clamped to at least 16. *)

val capacity : unit -> int

val clear : unit -> unit
(** Drop all recorded events and reset the sequence counter. *)

val emit :
  ?id:int -> ?args:(string * Sep_util.Json.t) list -> cat:string -> phase:phase -> string -> unit
(** Record one event (no-op while disabled). *)

val instant : ?id:int -> ?args:(string * Sep_util.Json.t) list -> cat:string -> string -> unit

val flow_start : ?args:(string * Sep_util.Json.t) list -> cat:string -> string -> int
(** Emit the source of a happens-before edge and return its fresh id —
    hand the id to the party that will observe the effect. Returns [0]
    (and records nothing) while disabled. *)

val flow_end : ?args:(string * Sep_util.Json.t) list -> cat:string -> id:int -> string -> unit
(** Emit the sink of the edge [id]. No-op while disabled or when
    [id = 0], so a flow started while the recorder was off never
    produces a dangling sink. *)

val recorded : unit -> event list
(** The ring's contents, oldest first. *)

val seen : unit -> int
(** Events offered while enabled since the last {!clear} — [seen ()
    - List.length (recorded ())] have been overwritten (wraparound). *)

val event_to_json : event -> Sep_util.Json.t
(** One Chrome [trace_event] object: [{"name", "cat", "ph", "ts"
    (microseconds), "pid", "tid", "id"?, "args"?}]. Exhaustive over
    {!phase} by construction. *)

val chrome_string : unit -> string
(** {!recorded} in the envelope Chrome and Perfetto accept,
    [{"traceEvents": [...], "displayTimeUnit": "ns"}], serialized. *)

val on_dump : (string -> event list -> unit) -> unit
(** Register an observer called with the reason and the events on every
    {!dump} — tests and the CLI use this; hooks persist until process
    exit. *)

val dump : reason:string -> unit
(** Flush the flight recorder: emit a final [Instant] marking [reason],
    keep the events for {!last_dump} and notify {!on_dump} observers.
    The ring is {e not} cleared — a later incident extends the same
    trace. No-op while disabled. [Sue] calls this on kernel panic; the
    online monitor calls it on the first separability violation. *)

val last_dump : unit -> (string * event list) option
(** The reason and events of the most recent {!dump}, if any. *)
