(** Online separability monitoring: the six conditions, as states arrive.

    The monitor is {!Separability}'s state-by-state driver
    ({!Separability.online}): feeding a state runs the same per-state
    steps the offline checker runs, conditions 1 and 2 against the
    abstract operation, condition 4 across the input alphabet, and
    conditions 3, 5 and 6 against the first state of its
    [Phi^c]-class, so a violation is flagged at the step that first
    exhibits it, not after the run. Feeding a state costs an amount
    independent of how many states came before it (amortized O(1) per
    state, by the class numbering). The monitor adds the step each state
    is attributed to and the flight-recorder dump.

    On a clean state list the monitor's {!report} equals
    {!Separability.check_states}' report on the same list. On a violating
    one the two order the failures differently (all six conditions per
    state here, colour by colour offline), and both cap them, so with no
    cap they find the same failures in a different order, with the same
    check counts — the agreement the test suite pins down.

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

    On the first violation the monitor flushes the {!Sep_obs.Trace}
    flight recorder, before the rest of that state's checks, so the
    causal events leading up to the violating step survive for
    post-mortem. *)

module System = Sep_model.System

type ('s, 'i, 'o, 'a, 'p) t

val create : ?max_failures:int -> ('s, 'i, 'o, 'a, 'p) System.t -> ('s, 'i, 'o, 'a, 'p) t
(** A fresh monitor over the system's colours and input alphabet.
    [max_failures] (default 20, as offline) caps recorded failures;
    past the cap, feeding continues and counts checks but records (and
    formats) nothing. *)

val feed : ?step:int -> ('s, 'i, 'o, 'a, 'p) t -> 's -> Separability.failure list
(** Check one state against everything fed so far
    ({!Separability.check_next}). Returns the {e new} failures this state
    exposed that were recorded (empty on a clean state). [step]
    attributes them to a driver-defined step index (default: the ordinal
    of the fed state). *)

val first_violation : _ t -> (int * Separability.failure) option
(** The earliest violation: the step index it was attributed to and the
    failure — [None] while the run is clean. *)

val report : _ t -> Separability.report
(** The accumulated result in the offline report shape. *)

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
