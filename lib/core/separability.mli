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

    Every entry point runs one condition core over an indexed table of
    states. Over an explored graph ({!check}) a state's post-[INPUT]
    states and [NEXTOP] successor are states of the graph, and [Phi^c] of
    each state is computed once per colour and shared by every check
    that reads it, so the system's [abop_apply] must not mutate its
    argument (see {!Sep_model.System.abop}). Reports do not depend on the
    sharing: checks, their order, and every failure detail are those of
    a checker that recomputes each value where it is used. *)

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
