(** JSONL event sinks.

    A sink receives {!Sep_util.Json} values and writes each as one compact
    line — the JSON Lines framing used for kernel traces ([--trace-json]),
    verification reports and telemetry snapshots. Buffer-backed sinks
    support tests and in-memory validation; file sinks are for the CLI. *)

type t

val of_buffer : Buffer.t -> t
val of_channel : out_channel -> t

val emit : t -> Sep_util.Json.t -> unit
(** Append one compact line (terminated by a newline). *)

val emitted : t -> int
(** Lines written so far. *)

val jsonl : Sep_util.Json.t list -> string
(** The JSON Lines text of the values, in order: what a buffer sink
    holds after emitting each of them. *)

val with_file : string -> (t -> 'a) -> 'a
(** Open (truncating), hand the sink to the callback, close — also on
    exceptions. *)
