(** Wall-clock span profiling over a shared {!Telemetry} registry.

    A span is a named section of code; timing it records the elapsed
    seconds into the histogram ["span.<name>"] of {!registry} (so call
    counts and p50/p90/p99 latencies come for free). Profiling is globally
    switched: when disabled (the default) a span costs one branch, so the
    instrumented kernel hot paths ({!Sep_core.Sue.exec_op}, the
    {!Sep_core.Separability} condition checkers, {!Sep_core.Randomized}
    walks) pay nothing in ordinary runs. Surfaces that report profiles
    ([rushby stats], [rushby verify --trace-json]) enable it first. *)

type t
(** A span handle: make once, time many. *)

val registry : Telemetry.t
(** The main domain's span registry — the process-global one reported by
    {!to_json}. *)

val local : unit -> Telemetry.t
(** The calling domain's span registry: {!registry} on the main domain, a
    fresh domain-local registry on domains spawned by {!Sep_par}. The
    executor merges worker registries into the spawner's at join, so spans
    timed inside parallel sections end up in {!registry} without
    cross-domain mutation. *)

val set_enabled : bool -> unit
(** Turn timing on or off (default: off). *)

val enabled : unit -> bool

val make : string -> t
(** [make name] finds or registers the histogram ["span." ^ name]. *)

val time : t -> (unit -> 'a) -> 'a
(** Run the thunk; when profiling is enabled, record its duration — also
    when it raises. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** [with_ ~name f] = [time (make name) f]; convenience for cold paths
    (does a registry lookup per call). *)

val reset : unit -> unit
(** Zero the global registry. *)

val to_json : unit -> Sep_util.Json.t
(** Snapshot of {!registry}, in the {!Telemetry.to_json} schema. *)
