(** The property runner: seeded replay, shrinking, budgets.

    [run] draws values from a generator, applies the property, and on the
    first failure minimizes the counterexample with the supplied shrinker.
    Everything is reproducible: the same seed replays the same draws, the
    same failure and the same minimization. *)

type budget = {
  max_runs : int;  (** property evaluations before declaring a pass *)
  max_shrink_steps : int;  (** candidate evaluations spent minimizing *)
  deadline : float option;  (** wall-clock seconds; [None] = unbounded *)
}

val budget : ?max_runs:int -> ?max_shrink_steps:int -> ?deadline:float -> unit -> budget
(** Defaults: 200 runs, 1000 shrink candidates, no deadline. *)

type 'a counterexample = {
  cx_seed : int;  (** the seed that replays this failure *)
  cx_run : int;  (** 1-based index of the failing draw *)
  cx_original : 'a;
  cx_minimized : 'a;
  cx_shrink_steps : int;  (** successful shrink steps taken *)
  cx_message : string;  (** the property's failure message *)
}

type 'a outcome =
  | Passed of int  (** property evaluations performed *)
  | Failed of 'a counterexample

val run :
  ?budget:budget -> ?shrink:'a Shrink.t -> seed:int -> 'a Gen.t ->
  ('a -> (unit, string) result) -> 'a outcome
(** Each draw uses a generator split from one seeded master stream, so a
    value's identity depends only on [seed] and its index — prefix
    lengths, not the budget, determine what gets drawn. *)

val check :
  ?budget:budget -> ?shrink:'a Shrink.t -> ?pp:(Format.formatter -> 'a -> unit) -> name:string ->
  seed:int -> 'a Gen.t -> ('a -> (unit, string) result) -> unit
(** Test-harness entry: raises [Failure] with the minimized
    counterexample, its message and the replay seed when the property
    fails; returns unit when it holds. *)
