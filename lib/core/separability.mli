(** Proof of Separability: checking the six conditions of the Appendix.

    Over a finite {!Sep_model.System} instance the six conditions are
    decidable by enumeration, turning Rushby's proof technique into a
    model checker:

    + [COLOUR(s) = c  ⊃  Phi^c(op(s)) = ABOP^c(op)(Phi^c(s))] — the active
      regime sees exactly its abstract machine's transition;
    + [COLOUR(s) ≠ c  ⊃  Phi^c(op(s)) = Phi^c(s)] — operations on behalf
      of others are invisible;
    + [Phi^c(s) = Phi^c(s')  ⊃  Phi^c(INPUT(s,i)) = Phi^c(INPUT(s',i))] —
      a regime's view of input consumption depends only on its own state;
    + [EXTRACT(c,i) = EXTRACT(c,i')  ⊃  Phi^c(INPUT(s,i)) =
      Phi^c(INPUT(s,i'))] — and only on its own components of the input;
    + [Phi^c(s) = Phi^c(s')  ⊃  EXTRACT(c,OUTPUT(s)) =
      EXTRACT(c,OUTPUT(s'))] — outputs to [c] are a function of [c]'s
      state;
    + [COLOUR(s) = COLOUR(s') = c ∧ Phi^c(s) = Phi^c(s')  ⊃
      NEXTOP(s) = NEXTOP(s')] — operation selection for [c] is a function
      of [c]'s state.

    Conditions 1 and 2 are checked with [op = NEXTOP(s)] — the operation
    that actually executes in [s]; other operations never run in [s], so
    the quantification over [OPS] restricted to the selected operation
    verifies every transition the system can make. Conditions 3–6 are
    universally quantified over state {e pairs} with equal abstractions;
    the checker buckets states by [Phi^c] and compares each bucket member
    against a representative (equality being transitive, this covers all
    pairs).

    One set of per-state steps decides the six conditions, and three
    drivers run them. Each driver keeps its own order of checks, and so
    of failures:
    - {!check} explores the reachable graph and examines it;
    - {!check_states} and {!check_states_pairwise} examine a
      caller-supplied state sample;
    - {!online}/{!check_next} examine states one at a time, as they
      arrive ({!Monitor} wraps this driver).
    {!check} and the sample drivers check conditions 1 and 2 over every
    state, then 3–6 colour by colour, and stop at [max_failures]. The
    online driver checks all six for each state in turn, against the
    states before it, and counts checks past the cap.

    Over an explored graph ({!check}) a state's post-[INPUT] states and
    [NEXTOP] successor are states of the graph, and [Phi^c] of each state
    is computed once per colour and shared by every check that reads it,
    so the system's [abop_apply] must not mutate its argument (see
    {!Sep_model.System.abop}).

    The graph path compares ids, the sample and online paths values.
    {!check} interns each [Phi^c] value it computes, per colour: the value
    is hashed once with [hash_abstate], and [equal_abstate] runs only
    against the values already interned under that hash. Conditions 2, 3
    and 4 then compare ids, and conditions 3, 5 and 6 find a state's
    class by its id. Condition 1 compares the interned value with the
    specification's fresh one. Failure text and [sanctioned_interference]
    see the interned value, which is [equal_abstate] to the one computed
    there; the system's [equal_abstate] must therefore be an equivalence
    that [hash_abstate], [pp_abstate] and [sanctioned_interference]
    respect (see {!Sep_model.System.t}). The sample and online paths
    number each colour's classes with the same intern table.
    {!check_states} and {!check_states_pairwise} keep nothing else they
    derive.

    Reports do not depend on either: checks, their order, and every
    failure detail are those of a checker that recomputes each value
    where it is used and compares values. *)

type failure = {
  condition : int;  (** 1–6 *)
  colour : Sep_model.Colour.t;  (** the regime whose view is violated *)
  detail : string;  (** rendered counterexample *)
}

type report = {
  instance : string;
  states : int;  (** states examined *)
  checks : int;  (** condition instances evaluated *)
  cond_checks : (int * int) list;  (** the same count broken out per condition, 1–6 *)
  failures : failure list;
}

val verified : report -> bool
(** No failures. *)

val failing_conditions : report -> int list
(** Sorted, duplicate-free condition numbers among the failures. *)

val pp_report : Format.formatter -> report -> unit

val pp_summary : Format.formatter -> report -> unit
(** One line: the header of {!pp_report} plus the failing conditions —
    without the rendered per-failure counterexamples, for callers (like
    the randomized CLI) that print minimized counterexamples instead. *)

val report_to_json : report -> Sep_util.Json.t
(** Stable machine-readable rendering: [{"instance", "states", "checks",
    "cond_checks": {"1": n, ...}, "verified", "failing_conditions",
    "failures": [{"condition", "colour", "detail"}]}]. *)

(** Checking is profiled through {!Sep_obs.Span} (spans
    [separability.reachable], [separability.cond1_2],
    [separability.cond3_4_5_6], [separability.cond4]) when span profiling
    is enabled; otherwise the instrumentation is inert. *)

val check : ?state_limit:int -> ?max_failures:int -> ('s, 'i, 'o, 'a, 'p) Sep_model.System.t -> report
(** Exhaustive Proof of Separability over the reachable states of the
    instance, checked off the graph {!Sep_model.System.explore} returns
    (honouring [state_limit]): post-[INPUT] states and [NEXTOP]
    successors are graph lookups, so no state is copied after the
    search, and [NEXTOP] runs again only in states that are never
    post-[INPUT] states. Collects at most [max_failures] (default 20)
    counterexamples. *)

val interned_views :
  ('s, 'i, 'o, 'a, 'p) Sep_model.System.t -> 's Sep_model.System.graph -> int array array * 'a array array
(** [interned_views sys g] runs {!check}'s examination of the graph [g]
    with no cap on failures and returns the views it read: [(ids,
    values)], where [ids.(ci).(k)] is the id of [Phi^c(g.states.(k))] for
    the [ci]-th colour of [sys], and [values.(ci).(id)] is the value
    interned under [id]. Each colour numbers its classes densely from 0,
    in the order it meets them; besides the graph's states, they include
    the states [NEXTOP] reaches from states that are never post-[INPUT].
    For tests of the interning. *)

val check_states :
  ?max_failures:int -> ('s, 'i, 'o, 'a, 'p) Sep_model.System.t -> 's list -> report
(** The same six-condition examination over a caller-supplied state
    sample — the randomized flavour used on instances too large to
    enumerate. The sample should contain [Phi^c]-equivalent state pairs
    (e.g. produced by perturbing non-[c] state), otherwise conditions
    3, 5 and 6 hold vacuously. A sample keeps nothing it derives: each
    colour's pass derives the post-[INPUT] states again, because keeping
    them (and [Phi^c] of the sample) across the check costs the collector
    more than recomputing them. Over the reachable states, in
    {!Sep_model.System.reachable} order, the report is the one {!check}
    gives. *)

val check_states_pairwise :
  ?max_failures:int -> ('s, 'i, 'o, 'a, 'p) Sep_model.System.t -> 's list -> report
(** The textbook formulation: conditions 3, 5 and 6 literally quantify
    over state {e pairs}, so compare every pair whose abstractions agree.
    Verdict-equivalent to {!check_states} (which buckets by abstraction
    and exploits transitivity of equality) but quadratic in the sample —
    kept as the ablation baseline for experiment E10. *)

(** {1 One state at a time} *)

type ('s, 'i, 'o, 'a, 'p) online
(** The state-by-state driver: per colour, the [Phi^c] value of each
    class met so far and the class's first state, and nothing else of the
    states checked. *)

val online :
  ?max_failures:int -> ?on_first_failure:(failure -> unit) ->
  ('s, 'i, 'o, 'a, 'p) Sep_model.System.t -> ('s, 'i, 'o, 'a, 'p) online
(** A driver that has checked no state. It keeps at most [max_failures]
    (default 20) failures and formats no other, but goes on counting
    checks past the cap. [on_first_failure] (default: nothing) sees the
    first failure kept, before the rest of its state's checks run. *)

val check_next : ('s, 'i, 'o, 'a, 'p) online -> 's -> failure list
(** All six conditions for one state, against the states checked
    before it. Returns the failures it kept for this state, in order. A
    post-[INPUT] state [equal_state] to the state checked is not
    abstracted again: its views are the state's own, which
    {!Sep_model.System.t} requires of [Phi^c]. *)

val online_report : _ online -> report
(** The report so far. Over the same state list, {!check_states} gives
    the same report on a clean sample. With no cap on either, the two
    find the same failures, in a different order, and make the same
    checks. *)
