(** Online separability monitoring: the six conditions, incrementally.

    The offline checker ({!Separability}) quantifies over a completed
    state sample; the monitor evaluates the same six Proof of
    Separability conditions {e as states arrive}. Feeding a state costs
    an amount independent of how many states came before it — the
    bucket tables keyed by each colour's abstraction give amortized O(1)
    per state — so a violation is flagged at the step that first
    exhibits it, not after the run.

    {b Agreement.} [feed]ing a state performs exactly the checks the
    offline {!Separability.check_states} performs for it: conditions 1
    and 2 against the abstract operation, condition 4 across the input
    alphabet, and conditions 3, 5, 6 against the representative of its
    Phi^c-equivalence bucket. On the same state list the monitor's
    {!report} therefore reproduces the offline report's state, check and
    per-condition counts, and (on clean runs) its emptiness of failures
    — the agreement the test suite pins down.

    {b Streaming.} {!watch} attaches the monitor to a {e live}
    {!Sue} kernel: after every {!Sue.step} a cheap O(1) probe
    ({!Sue.audit_count}) decides whether the kernel just detected
    something; deep checks run on audit activity and on a sampling
    period. Their cost is not negligible. On the microcode scenarios at
    the default period of 500, the benchmark's traced ledger reads a
    watched run 11-22% slower than a bare one ([monitor.overhead_frac]
    0.11-0.22 over six runs, 2-vCPU VM). A federation shard is watched
    every 64 steps and has nine colours, so there a deep check costs
    ~21-25 us and deep checks take about a fifth of a monitored service
    step (~1.1 of ~5.4 us, against ~4.3 us unwatched). Fault campaigns and the fuzzer
    use [feed] with per-step attribution instead, where the caller
    already pays for state snapshots and scrambled Phi-partners.

    A post-[INPUT] state [equal_state] to the state fed is not
    abstracted again: its views are the state's own, which
    {!System.t} requires of [Phi^c]. On a federation shard, whose
    alphabet is the empty input alone, that is nearly every deep
    check.

    On the first violation the monitor flushes the {!Sep_obs.Trace}
    flight recorder, so the causal events leading up to the violating
    step survive for post-mortem. *)

module System = Sep_model.System

type ('s, 'i, 'o, 'a, 'p) t

val create : ?max_failures:int -> ('s, 'i, 'o, 'a, 'p) System.t -> ('s, 'i, 'o, 'a, 'p) t
(** A fresh monitor over the system's colours and input alphabet.
    [max_failures] (default 20, as offline) caps recorded failures;
    past the cap, feeding continues but records nothing. *)

val feed : ?step:int -> ('s, 'i, 'o, 'a, 'p) t -> 's -> Separability.failure list
(** Check one state against everything fed so far and fold it into the
    bucket tables. Returns the {e new} failures this state exposed
    (empty on a clean state). [step] attributes the failures to a
    driver-defined step index (default: the ordinal of the fed state). *)

val frontier : _ t -> int
(** Distinct abstractions tracked, summed over colours — the live
    frontier of the view-equivalence search. Also published as the
    gauge ["separability.frontier"] on {!Sep_obs.Span.local}. *)

val first_violation : _ t -> (int * Separability.failure) option
(** The earliest violation: the step index it was attributed to and the
    failure — [None] while the run is clean. *)

val violations : _ t -> (int * Separability.failure) list
(** All recorded violations with their step indices, in feed order. *)

val report : _ t -> Separability.report
(** The accumulated result in the offline report shape: on the same
    state list it matches {!Separability.check_states} in states,
    checks, per-condition check counts and failure conditions. *)

(** {1 Watching a live kernel} *)

type swatch
(** A streaming watch over one {!Sue} kernel. *)

val watch :
  ?period:int -> ?max_failures:int -> ?sanction_channels:bool ->
  inputs:Sue.input list -> Sue.t -> swatch
(** Attach to a kernel (checking its initial state immediately). Call
    {!observe} after every {!Sue.step}. A deep check — snapshotting the
    kernel and feeding it to the incremental checker — runs whenever
    {!Sue.audit_count} moved since the last observation, and otherwise
    every [period] steps (default 500). The snapshots come from
    {!Sue.detached_copies}, so the hypothetical INPUT and operation a
    deep check runs leave the kernel's counters, audit log and
    checkpoints as they were. [inputs] is the scenario's
    input alphabet, needed for conditions 3 and 4. [sanction_channels]
    (default [false]) is passed to {!Sue.system_of_kernel}, which
    packages the watched kernel's own configuration without building a
    second kernel: set it when the watched kernel runs
    with channels connected (a federation shard), where condition 2's
    strict reading would flag every legitimate send and receive. *)

val observe : swatch -> unit
(** The per-step probe: O(1) and allocation-free on the cheap path. *)

val watch_steps : swatch -> int
(** Steps observed so far. *)

val deep_checks : swatch -> int
(** How many observations escalated to a deep check. *)

val watch_report : swatch -> Separability.report

val watch_first_violation : swatch -> (int * Separability.failure) option
(** The step index here is the observed kernel step count at the deep
    check that flagged the violation. *)
