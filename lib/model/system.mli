(** The shared-system model of the paper's Appendix, as first-class data.

    A system has states [S], operations [OPS] (state transformers), inputs
    [I] and outputs [O]. At each time step it consumes an input (function
    [INPUT]), selects an operation according to its state ([NEXTOP]),
    executes it, and emits an output ([OUTPUT]). The identity of the user on
    whose behalf an operation executes is [COLOUR] of the state at selection
    time; [EXTRACT] projects the per-colour private components out of inputs
    and outputs.

    Security ("separability") is defined through per-colour abstraction
    functions [Phi^c] from concrete to abstract states and [ABOP^c] from
    concrete to abstract operations, subject to the six conditions checked
    by {!Sep_core.Separability}.

    Operations are named: [NEXTOP] equality (condition 6) and the [ABOP^c]
    correspondence are decided on names, since function equality is not
    available. Instances must therefore give distinct names to semantically
    distinct operations. *)

type 's op = { op_name : string; op_apply : 's -> 's }
(** A named concrete operation. *)

type 'a abop = { abop_name : string; abop_apply : 'a -> 'a }
(** A named abstract operation of one regime's private ("abstract")
    machine. [abop_apply] must not mutate its argument: the checker
    computes each [Phi^c] value once and may pass the same value to
    several checks. *)

type ('s, 'i, 'o, 'a, 'p) t = {
  name : string;  (** instance name, for reports *)
  colours : Colour.t list;  (** the set [C] *)
  initial : 's list;  (** initial concrete states *)
  inputs : 'i list;  (** the (finite) input alphabet [I] *)
  ops : 's op list;  (** the set [OPS] *)
  colour_of : 's -> Colour.t;  (** [COLOUR] *)
  input : 's -> 'i -> 's;  (** [INPUT] *)
  nextop : 's -> 's op;  (** [NEXTOP] *)
  output : 's -> 'o;  (** [OUTPUT] *)
  extract_input : Colour.t -> 'i -> 'p;  (** [EXTRACT] on inputs *)
  extract_output : Colour.t -> 'o -> 'p;  (** [EXTRACT] on outputs *)
  abstract : Colour.t -> 's -> 'a;  (** [Phi^c] *)
  abop : Colour.t -> 's op -> 'a abop;  (** [ABOP^c] *)
  sanctioned_interference : Colour.t -> Colour.t -> 'a -> 'a -> bool;
      (** [sanctioned_interference active viewer before after]: condition
          2's connected-system weakening. [true] when the change an
          operation on behalf of [active] made to [viewer]'s view is
          confined to the contents of channels {e declared} (and not cut)
          from [active] to [viewer] — the paper's "except via authorized
          channels" reading, needed the moment a kernel runs with its
          channels connected rather than cut. Fully cut systems return
          [false] everywhere, demanding strict invisibility; Proof of
          Separability proper applies to those. *)
  equal_state : 's -> 's -> bool;
      (** Must be an equivalence that [hash_state] respects, and [abstract]
          must respect it too: [Phi^c] of two [equal_state] states are
          [equal_abstate] for every colour [c]. The exhaustive checker
          computes [Phi^c] once per class, and the monitor takes
          [Phi^c(s)] as the view of a post-[INPUT] state equal to [s]. *)
  hash_state : 's -> int;
  equal_abstate : 'a -> 'a -> bool;
      (** Must be an equivalence, and [hash_abstate], [pp_abstate] and
          [sanctioned_interference] must respect it: equal values hash
          alike, print alike and are sanctioned alike. The exhaustive
          checker keeps one value per class and hands it to the three in
          place of any other member of the class. *)
  hash_abstate : 'a -> int;
  equal_proj : 'p -> 'p -> bool;
  pp_state : Format.formatter -> 's -> unit;
  pp_input : Format.formatter -> 'i -> unit;
  pp_abstate : Format.formatter -> 'a -> unit;
}

val step : ('s, 'i, 'o, 'a, 'p) t -> 's -> 'i -> 's
(** One time step: consume the input, then select and execute an
    operation — [NEXTOP(INPUT(s,i)) (INPUT(s,i))]. *)

type 's graph = {
  states : 's array;  (** the reachable states, in breadth-first order *)
  after_input : int array array;
      (** [after_input.(k).(j)]: the index of [INPUT(states.(k), i)] for
          the [j]-th input [i] of [inputs] *)
  after_op : int array;
      (** [after_op.(m)]: the index of [NEXTOP(s)(s)] for the post-[INPUT]
          state [s = states.(m)], or [-1] if [states.(m)] is never a
          post-[INPUT] state *)
}
(** The reachable states as an indexed graph. Indices name
    [equal_state]-classes: [states.(k)] is the first state of its class
    that the search visited. *)

val explore : ?limit:int -> ('s, 'i, 'o, 'a, 'p) t -> 's graph
(** Breadth-first search from the initial states under {!step} with every
    input, including intermediate post-[INPUT] states (operations are
    selected in those, so the six conditions must hold there too).
    [equal_state] states are one state, so [NEXTOP] is applied once per
    post-[INPUT] class, to the first member the search meets: a later
    member's successor is the same class, already visited. Raises
    [Failure "System.reachable: state limit exceeded"] if more than
    [limit] (default 200_000) distinct states are found, to keep
    exhaustive checks honest about their feasibility. *)

val reachable : ?limit:int -> ('s, 'i, 'o, 'a, 'p) t -> 's list
(** The states of {!explore}, in the same order. *)

val trace : ('s, 'i, 'o, 'a, 'p) t -> 's -> 'i list -> 's list * 'o list
(** [trace sys s ins] runs the system from [s] over the input word [ins];
    returns the visited states (including [s]) and the outputs emitted
    (one per step, [OUTPUT] of the pre-step state, as in the Appendix). *)
