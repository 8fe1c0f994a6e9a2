(** The machine-level abstract specification: the proof-of-separability
    ideal against which {!Sep_core.Sue} is checked by bisimulation.

    The state is one pure {!Sep_core.Abstract_regime} machine per colour —
    each regime on "a machine of its own" — plus the two pieces of shared
    reality a separation kernel is allowed to multiplex: which colour
    holds the (purely conceptual) processor, and the declared channel
    copies. Nothing else is shared: there is no kernel memory, no save
    area, no ring buffer — those are {!Sep_core.Sue} implementation
    artefacts that the abstraction function {!Sep_core.Sue.phi} erases.

    {!step} is a small-step relation at the same granularity as
    {!Sep_core.Sue.step} (one machine instruction per step), so the
    commuting square

    {v
        spec  --step-->  spec'
          |                |
         phi              phi
          |                |
        sue   --step-->  sue'
    v}

    can be checked at {e every} step: after each pair of steps,
    [Sue.phi sue c] must equal the spec's machine for every colour [c],
    the observed outputs must be identical, and the processor must be
    with the same colour. *)

module Colour = Sep_model.Colour
module Config = Sep_core.Config
module AR = Sep_core.Abstract_regime

type t

val init : Sep_hw.Isa.stmt list Config.t -> t
(** The specification's initial state, built from the configuration alone:
    assembled program followed by zeroed private store, zero registers,
    every machine [Running], devices idle, channel ends empty, colour 0
    holding the processor. [init cfg] must equal the abstraction of a
    freshly built clean kernel — the base case of the simulation, pinned
    by a test. *)

val step : t -> (int * int) list -> (int * int) list
(** One specification step: observe busy transmitters, complete their
    transmissions and latch arrivals, then execute one instruction of the
    current machine — performing the declared channel copy on a
    successful SEND/RECV and the round-robin hand-over on yield, wait,
    park or quantum expiry. Returns the outputs observed at the start of
    the step, exactly as {!Sep_core.Sue.step} does. *)

val machine : t -> Colour.t -> AR.t
(** The per-colour abstract machine (the value {!Sep_core.Sue.phi} must
    reproduce). *)

val current_colour : t -> Colour.t
val colours : t -> Colour.t list

(** {1 Committed-word streams}

    The Kahn-style observation the cross-level relation compares: the
    sequence of words committed on each declared channel and emitted on
    each transmitter, in commit order. *)

val sent_words : t -> int -> int list
(** Words accepted onto channel [id] by successful SENDs, oldest first. *)

val consumed_words : t -> int -> int list
(** Words bound by successful RECVs on channel [id], oldest first. *)

val emitted_words : t -> Colour.t -> int list
(** Words observed leaving [c]'s transmitters, oldest first. *)
