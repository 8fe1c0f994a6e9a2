(** Generators: seeded random production of test inputs.

    A generator is a function from a {!Sep_util.Prng} state to a value, so
    every generated value is reproducible from a seed and generators
    compose as ordinary functions. Beyond the usual combinators the module
    generates the domain objects of this repository: regime programs over
    {!Sep_hw.Isa} (via the {!action} workload representation, which is
    what the shrinker operates on), whole {!Sep_core.Config} instances,
    input schedules over a scenario alphabet, fault plans and JSON
    values. *)

module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa
module Config = Sep_core.Config
module Sue = Sep_core.Sue

type 'a t = Sep_util.Prng.t -> 'a

val run : seed:int -> 'a t -> 'a
(** Generate one value from a fresh seeded generator state. *)

val generate : seed:int -> count:int -> 'a t -> 'a list
(** [count] values from one seeded stream. *)

(** {1 Combinators} *)

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val pair : 'a t -> 'b t -> ('a * 'b) t
val int : int -> int t
(** Uniform in [\[0, bound)]. *)

val int_in : int -> int -> int t
(** Uniform in [\[lo, hi\]] inclusive. *)

val bool : bool t
val oneof : 'a t list -> 'a t
val frequency : (int * 'a t) list -> 'a t
(** Weighted choice; weights must be positive. *)

val list : max_len:int -> 'a t -> 'a list t
(** Length uniform in [\[0, max_len\]]. *)

val int_any : int t
(** Full-range OCaml ints, biased toward 0, small values and the extremes. *)

val utf8_string : max_len:int -> string t
(** Valid UTF-8 by construction, mixing ASCII, control characters, Latin
    and CJK ranges and supplementary (astral) code points — the latter
    exercise the writer's and parser's UTF-16 surrogate-pair handling. *)

val json : ?depth:int -> unit -> Sep_util.Json.t t
(** Arbitrary JSON values, [depth] (default 3) levels of nesting. *)

val isa_instr : Isa.t t
(** Any well-formed instruction (all fields in range). *)

(** {1 Regime workloads}

    Workloads are generated in an abstract action vocabulary and rendered
    to {!Isa.stmt} programs, so shrinking can drop whole actions while
    every intermediate stays a well-formed, always-yielding program. *)

type arith =
  | Add
  | Sub
  | Xor
  | And_
  | Or_

type action =
  | Set of int * int  (** [r := imm], register 0–5, immediate 0–255 *)
  | Arith of arith * int * int
  | Emit of int * int  (** store a register to an owned Tx device slot *)
  | Poll of int  (** read an owned Rx device slot's data latch into [r2] *)
  | Send of int * int  (** SEND trap: channel id, data register *)
  | Recv of int  (** RECV trap on a channel id *)
  | Wait  (** [Halt]: wait for an interrupt *)
  | Yield  (** [Trap 0]: SWAP *)

val pp_action : Format.formatter -> action -> unit

type caps = {
  rx_slots : int list;  (** regime-relative Rx device slots *)
  tx_slots : int list;
  send_chans : int list;  (** channel ids this regime may SEND on *)
  recv_chans : int list;
}
(** What a regime may legally do, derived from the configuration; the
    action generator only produces actions within these capabilities. *)

val caps_of_regime : 'p Config.t -> Colour.t -> caps

val action : caps -> action t
val actions : caps -> max:int -> action list t

val render : action list -> Isa.stmt list
(** A complete regime program: the device-base prelude (only when a device
    action needs it), the action bodies, then a trailing SWAP and a branch
    back — so every rendered program yields on each pass and assembles
    without labels dangling. *)

val instr_count : action list -> int
(** Machine words of the assembled rendering — the size measure that
    counterexamples are minimized against. *)

val program : caps -> max:int -> Isa.stmt list t
(** [render] composed over {!actions}. *)

val config : ?max_regimes:int -> ?max_actions:int -> unit -> Isa.stmt list Config.t t
(** Valid configurations: 2–[max_regimes] (default 3) regimes with
    generated device sets, programs sized to their partitions, 0–2
    channels between distinct regimes, and an optional preemption
    quantum. The result always satisfies {!Config.validate} and builds
    under {!Sue.build}. *)

val rx_alphabet : 'p Config.t -> Sue.input list
(** The canonical input alphabet of a configuration: the empty input plus
    words 0 and 1 to each Rx device, mirroring the hand-written scenario
    alphabets. *)

val schedule : alphabet:Sue.input list -> max_len:int -> Sue.input list t
(** An input schedule: one alphabet element per step. *)

val soak_plans :
  nodes:Sep_robust.Fault_plan.node_space ->
  steps:int -> count:int -> 'p Config.t -> Sep_robust.Fault_plan.t list t
(** Seeded soak plans via {!Sep_robust.Fault_plan.soak} — sustained,
    correlated node-level chaos (repeated same-shard crashes, flapping
    partitions, tamper bursts) over a long horizon, the seed drawn from
    the generator state. [steps] must be at least 256. *)

val service_requests :
  workload:(Sep_util.Prng.t -> int * int) -> max:int -> (int * int) list t
(** A service workload: 1–[max] [(op, arg)] request draws from a
    deployment's workload function ({!Sep_svc.Svc.deployment}'s
    [dp_workload] has exactly this type), reproducible from the
    generator state. *)

val crashes :
  colours:Sep_model.Colour.t list -> max_steps:int -> max_crashes:int ->
  (int * Sep_model.Colour.t) list t
(** 1–[max_crashes] crash points (step, victim) for
    crash-restart runs ({!Fuzz.fuzz_recovery}). *)
