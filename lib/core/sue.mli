(** The machine-level separation kernel, after RSRE's "Secure User
    Environment".

    The kernel recreates, within one {!Sep_hw.Machine}, the environment of
    a physically distributed system: each regime of the {!Config} gets a
    fixed partition of real memory, permanent and exclusive ownership of
    its devices, a round-robin share of the processor relinquished
    voluntarily via the SWAP trap, and kernel-buffered one-way channels.
    Like the SUE it performs no paging, no scheduling policy beyond
    round-robin, and no I/O beyond fielding interrupts — DMA does not
    exist in the simulated machine at all.

    {b All kernel state lives inside the machine's own memory}, in a
    kernel partition below the regime partitions (save areas, regime
    status words, channel buffers), so a machine state is the complete
    concrete state of the Appendix model and the abstraction functions
    {!phi} have everything in view.

    Trap numbers: [Trap 0] = SWAP (yield), [Trap 1] = SEND
    ([R0] = channel id, [R1] = word; [R2] result: 1 sent, 0 full,
    2 not yours), [Trap 2] = RECV ([R0] = channel id; [R1] = word,
    [R2]: 1 received, 0 empty, 2 not yours). Other traps park the
    regime, as do faults.

    {b Seeded bugs.} The {!bug} variants switch on deliberately broken
    behaviours, one per class of kernel flaw that Proof of Separability
    must catch; {!Mutants} pairs each with the condition expected to fail. *)

module Colour = Sep_model.Colour
module Machine = Sep_hw.Machine
module Isa = Sep_hw.Isa

type bug =
  | Forget_register_save  (** SWAP omits saving [R3] *)
  | Partition_hole  (** the switch spills the outgoing [R0] into the incoming partition *)
  | Misroute_interrupt  (** a device IRQ wakes the regime after the owner *)
  | Misroute_device_input  (** external input latched into the next device *)
  | Output_leak  (** every busy Tx wire is OR-ed with the next regime's saved [R1] *)
  | Schedule_on_foreign_state  (** stall the current regime when regime 0's saved [R0] is odd *)
  | Uncut_channel  (** ignore [cut] flags: RECV drains the sender's end anyway *)
  | Input_crosstalk  (** Rx latch XORs in the live [R0] *)

val pp_bug : Format.formatter -> bug -> unit
val all_bugs : bug list

type impl =
  | Microcode
      (** kernel services performed by the simulator host between
          instructions — the kernel as a hardware extension *)
  | Assembly
      (** kernel services performed by {e machine code}: traps dump the
          context into the hardware frame, enter kernel mode at the
          kernel's entry vector, and generated assembly (living in the
          kernel partition, specialised to the configuration like the
          real SUE's build) saves contexts, walks the regime descriptor
          table, programs the MMU control registers and returns with
          [Rti]. Restrictions: no preemption quantum, channel capacities
          of 1, at most 4 regimes / 4 channels / 4 devices per regime,
          and kernel data below address 256. The kernel-memory layout is
          identical to [Microcode] (descriptor tables and code are
          appended after the channel areas), so the abstraction functions
          and every verification technique apply unchanged. *)

val pp_impl : Format.formatter -> impl -> unit

type t
(** A built kernel instance: configuration plus the shared machine. *)

type input = (int * int) list
(** External arrivals for one step: (global device id, word), at most one
    per device, Rx devices only. *)

type output = (int * int) list
(** Tx wire levels: (global device id, word) for each busy Tx device. *)

val build : ?bugs:bug list -> ?impl:impl -> ?watchdog:int -> Isa.stmt list Config.t -> t
(** Assemble each regime's program into its partition, lay out kernel data,
    and start with regime 0 current. Raises [Invalid_argument] on an
    invalid configuration, a program that overflows its partition, a
    channel capacity that does not fit kernel memory, or a configuration
    outside the [Assembly] restrictions. [impl] defaults to
    [Microcode]. All eight seeded bugs exist in both implementations
    (two are generated into the assembly; the I/O-side ones are shared
    hardware behaviour).

    [watchdog] (microcode only, exclusive with a preemption [quantum])
    arms a watchdog of that many instructions: a regime that executes that
    long without yielding is forced off the processor with an audited
    {!Watchdog_expired} fault — insurance against regimes that never
    yield. Requires a positive count. *)

val kernel_code_words : t -> int
(** Words of kernel machine code ([Assembly] only; 0 for [Microcode]) —
    the direct analogue of the SUE's "about 5K words". *)

val config : t -> Isa.stmt list Config.t
val machine : t -> Machine.t
val bugs : t -> bug list

val kernel_words : t -> int
(** Size of the kernel partition in words — the analogue of the paper's
    "about 5K words, including all stack and data space". Guard words are
    outside this tally (they fence the kernel area and the partitions). *)

(** {1 Hardening and fault containment}

    The kernel defends its own data structures against transient
    corruption: every register save area carries a checksum (computed over
    the saved registers and flags as they sit in memory) verified before a
    restore; guard words fence the kernel area and every partition and are
    swept at each context switch; an optional watchdog bounds how long a
    regime can hold the processor without yielding. {b Detected corruption
    never raises}: the kernel takes a fail-safe transition — park the
    corrupt regime, repair the guard, force the yield, or (for faults
    inside the kernel itself) panic to a fully parked halt — and records a
    {!kernel_fault} in an audit log shared by {!copy}, alongside the
    fault counters in {!kstats}. Checksums are maintained by the
    [Microcode] kernel's save path; the [Assembly] kernel shares the guard
    fencing and the panic path. *)

type kernel_fault =
  | Save_area_corrupt of Colour.t
      (** a save-area checksum mismatch parked its regime before restore *)
  | Guard_breach of int  (** a guard word at this physical address was overwritten (and repaired) *)
  | Channel_head_corrupt of int
      (** a channel ring's head word (at this physical address) held an
          out-of-range index when RECV popped; the read stays in bounds,
          the head word is repaired *)
  | Watchdog_expired of Colour.t  (** the watchdog forced this regime off the processor *)
  | Kernel_panic of string
      (** a trap, machine fault or non-termination {e inside} the kernel:
          every regime is parked and the machine halts *)
  | Regime_restart of Colour.t
      (** this regime was restored from its checkpoint by {!restart} or
          {!warm_reboot} *)
  | Checkpoint_corrupt of Colour.t
      (** the checkpoint a restart needed failed its checksum; the regime
          stays parked *)
  | Warm_reboot  (** {!warm_reboot} ran (the audit log survives it) *)

val drain_faults : t -> kernel_fault list
(** Remove and return the audit log, oldest first. The log is shared by
    {!copy} (like the counters) and capped; counters in {!kstats} are not
    affected by draining. *)

val guard_sweep : t -> int
(** Verify every guard word now (they are otherwise swept at context
    switches), repairing and auditing each breach; returns the number of
    breaches found. *)

(** {1 Recovery: checkpoints, restart, warm reboot}

    The fail-operational layer on top of the fail-safe transitions above.
    The [Microcode] kernel checkpoints each regime — save-area image plus
    partition contents, sealed by a checksum — into a store modelling
    stable storage: at build time, at every SWAP boundary (as part of the
    context save), and after every instruction whose effect escapes the
    regime (a successful SEND or RECV, a Tx write arming a transmission,
    an Rx read consuming a latched word). The last rule is the classic
    output-commit fence: a restart replays only pure local computation,
    so no observable effect is ever duplicated or lost, and the restart
    is invisible to every other colour up to timing — which the paper's
    security argument already excludes.

    The checkpoint store is shared by {!copy} (like the counters and the
    audit log) and sits outside {!equal}, {!hash} and every {!phi}.
    Restart restores only the regime's save area, partition and status;
    channel contents and device registers are external to the rebooted
    "node", exactly as wires survive a machine reboot in the distributed
    analogue. Both operations require the [Microcode] kernel and raise
    [Invalid_argument] under [Assembly], like the watchdog. *)

type restart_result =
  | Restarted
  | Not_parked  (** only a parked regime can be restarted *)
  | Bad_checkpoint
      (** the checkpoint failed its checksum: audited as
          {!Checkpoint_corrupt}, regime left parked *)

val restart : t -> Colour.t -> restart_result
(** Restore a parked regime from its last good checkpoint (the as-built
    image if it never reached an effect boundary), mark it runnable, and
    audit a {!Regime_restart}. If the restarted regime is current the
    processor context is reloaded and the quantum/watchdog re-armed. *)

val all_parked : t -> bool
(** The halt state a panic (or a park cascade) leaves behind: nothing will
    ever run again without a {!warm_reboot}. *)

val any_parked : t -> bool
(** Some regime is parked: exactly when some colour's {!regime_status} is
    [Parked], but read straight from the status words, one per regime. *)

val warm_reboot : t -> Colour.t list
(** Recover the whole kernel from an all-parked halt: re-fence the guard
    words, restore every parked regime from its checkpoint (regimes whose
    checkpoints fail their checksums stay parked, audited as
    {!Checkpoint_corrupt}), hand the processor to a runnable regime, and
    re-arm the countdown. The audit log is preserved across the reboot —
    it records why the reboot happened, including the {!Warm_reboot} event
    itself and one {!Regime_restart} per revived regime. Returns the
    colours restored. *)

val crash : t -> unit
(** Model a whole-node power failure: park every regime (their live
    contexts are lost) and leave the machine in the all-parked halt,
    audited as a {!Kernel_panic} ["node power failure"]. Channel contents
    and device registers survive — they are wires and peripherals,
    external to the node — and so does the audit log. {!warm_reboot} is
    the matching power-cycle: it revives every regime from its last
    checksummed checkpoint. This is the federation supervisor's model of
    losing a shard. *)

val corrupt_checkpoint : t -> Colour.t -> unit
(** Test hook: damage the checkpoint {!restart} would use, to exercise the
    [Bad_checkpoint] path. *)

(** {1 Kernel telemetry}

    Every kernel instance keeps cheap counters of the work it performs:
    instructions retired per regime, kernel service calls, voluntary
    yields, channel words copied, interrupts forwarded, wake-ups, context
    switches and stalled steps. {b The tally is shared by {!copy}} — all
    snapshots derived from one {!build} accumulate into the same record, so
    a state-space exploration reports the total work of the exploration.
    Counters are outside {!equal}, {!hash} and every {!phi}: observing the
    kernel never perturbs verification. *)

type kstats = {
  ks_instrs : (Colour.t * int) list;  (** user instructions retired, per regime *)
  ks_traps : (Colour.t * int) list;  (** serviced kernel calls (SWAP/SEND/RECV) *)
  ks_swaps : (Colour.t * int) list;  (** voluntary yields among those *)
  ks_sent : (Colour.t * int) list;  (** channel words copied in by SEND *)
  ks_recvd : (Colour.t * int) list;  (** channel words copied out by RECV *)
  ks_switches : int;  (** context switches *)
  ks_irqs_forwarded : int;  (** device interrupts fielded *)
  ks_wakes : int;  (** waiting regimes made runnable *)
  ks_stalls : int;  (** execution steps with nothing to run *)
  ks_inputs_latched : int;  (** external words latched into Rx devices *)
  ks_outputs_observed : int;  (** words seen on busy Tx wires by {!step} *)
  ks_kernel_instrs : int;  (** kernel-mode instructions ([Assembly] only) *)
  ks_fault_parks : int;  (** regimes parked by save-area checksum mismatches *)
  ks_guard_breaches : int;  (** guard words found overwritten (and repaired) *)
  ks_chan_repairs : int;  (** channel ring head words found out of range (and repaired) *)
  ks_watchdog_fires : int;  (** forced yields by the watchdog *)
  ks_panics : int;  (** kernel panics (faults inside the kernel) *)
  ks_checkpoints : int;  (** regime checkpoints captured *)
  ks_restarts : int;  (** regimes restored from checkpoints *)
  ks_warm_reboots : int;  (** whole-kernel warm reboots *)
}

val kstats : t -> kstats
(** An immutable snapshot of the counters. *)

val audit_count : t -> int
(** The sum of the audit-level counters (fault parks, guard breaches,
    watchdog fires, panics, restarts, warm reboots) as one O(1),
    allocation-free read — the probe the online monitor
    ({!Sep_core.Monitor}) polls after every step to decide whether the
    kernel just detected something worth a deep check. *)

val reset_kstats : t -> unit
(** Zero the counters (shared across every copy of this instance). *)

val telemetry : t -> Sep_obs.Telemetry.t
(** The same snapshot as a metric registry, for merging and JSON export:
    per-regime counters are named [sue.<metric>.<colour>]
    ([sue.instrs.RED], [sue.traps.RED], [sue.swaps.RED],
    [sue.chan_words_sent.RED], [sue.chan_words_recvd.RED]), machine-wide
    ones [sue.switches], [sue.irqs_forwarded], [sue.wakes], [sue.stalls],
    [sue.inputs_latched], [sue.outputs_observed], [sue.kernel_instrs],
    [sue.fault_parks], [sue.guard_breaches], [sue.watchdog_fires],
    [sue.panics], [sue.checkpoints], [sue.restarts],
    [sue.warm_reboots]. *)

val current_colour : t -> Colour.t
val regime_status : t -> Colour.t -> Abstract_regime.status
val device_owner : t -> int -> Colour.t

val device_slot : t -> int -> Colour.t * int
(** Owner and slot index of a global device: global device ids are
    machine-wide, slots are regime-relative. *)

(** {1 Physical layout}

    Physical addresses of the kernel's data structures, for fault
    injection and diagnostics. Writing to these through
    {!Machine.write_phys} models transient hardware corruption; the
    hardening above decides what the kernel does about it. *)

val partition_bounds : t -> Colour.t -> int * int
(** [(base, size)] of a regime's memory partition, in physical words. *)

val save_area_base : t -> Colour.t -> int
(** Physical address of a regime's register save area (slots 0-7 the
    saved registers, 8 the flags, 9 the status word, 10 the checksum). *)

val guard_addrs : t -> int list
(** Physical addresses of the guard words (one before each partition, one
    after the last). *)

val channel_area : t -> int -> (int * int * int) option
(** [(send_area, recv_area, capacity)] of a channel id: the two ring
    buffers, each laid out as head, count, data\[capacity\]. *)

val kernel_code_region : t -> int * int
(** [(base, length)] of the kernel's machine code ([Assembly]; length 0
    for [Microcode]). *)

(** {1 Execution} *)

val deliver_inputs : t -> input -> unit
(** The INPUT stage of the Appendix model: drain busy Tx wires, latch
    arrivals into Rx devices, field the raised IRQs (waking waiting
    owners; if nothing was runnable, switch to the first woken regime). *)

val outputs : t -> output
(** The OUTPUT observation: a pure function of the state. *)

val exec_op : t -> unit
(** The operation stage: execute one instruction of the current regime and
    handle its consequences (traps, waits, faults, context switches). A
    stalled kernel (current regime not runnable) does nothing. *)

val step : t -> input -> output
(** [outputs], then [deliver_inputs], then [exec_op] — one full time step
    of the model; returns the output observed at the start of the step. *)

val run : t -> steps:int -> inputs:(int -> input) -> output list
(** Iterate {!step}; [inputs n] supplies the arrivals of step [n]. Collects
    the nonempty outputs in order. *)

(** {1 Verification interface} *)

val phi : t -> Colour.t -> Abstract_regime.t
(** The abstraction function [Phi^c]: regime [c]'s private machine as
    induced by the {e intended} kernel design — partition contents,
    registers (live if current, else the save area), flags, status, owned
    devices, and this regime's ends of its channels (a cut channel's
    receive end is the never-fed second buffer). *)

val nextop_name : t -> string
(** The name of the operation {!exec_op} would perform: ["<colour>:<hex
    instruction word>"], ["<colour>:pcfault"] or ["<colour>:stall"]. *)

val copy : t -> t
(** A copy of the state. It shares the kernel counters, the audit log and
    the checkpoint store with the original, so the states of one
    exploration tally into one record. *)

val detached_copies : t -> unit -> t
(** [detached_copies t] is a maker of copies for hypothetical runs beside
    the live kernel [t]: each call copies [t]'s state as it is then, like
    {!copy}, but the copies keep their kernel counters, audit log and
    checkpoint store apart from [t]'s. They share one set, made from
    [t]'s own when [detached_copies t] is applied. Nothing a copy or any
    {!copy} of it does reaches [t]: no count, no audit record, no
    checkpoint. {!Monitor.watch} runs its deep checks on these. *)

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val scramble_others : Sep_util.Prng.t -> t -> Colour.t -> t
(** A copy of the state in which everything {e outside} [Phi^c] is
    randomized within representable ranges: other regimes' partitions,
    register save areas (or live registers, when another regime is
    current), flags, statuses, their devices, and the channel ends not
    visible to [c]. By construction [phi t c = phi (scramble_others rng t
    c) c], giving the randomized checker state pairs for conditions 3, 5
    and 6 on instances too large to enumerate. *)

val to_system :
  ?bugs:bug list -> ?impl:impl -> ?sanction_channels:bool ->
  inputs:input list -> Isa.stmt list Config.t ->
  (t, input, output, Abstract_regime.t, (int * int) list) Sep_model.System.t
(** Package a configuration as an Appendix-model system over the given
    finite input alphabet, for {!Separability}. States are immutable
    snapshots (every transition copies). The per-colour projection of
    inputs and outputs keeps the pairs on devices owned by that colour.

    [sanction_channels] (default [false]) opts into condition 2's
    connected-system weakening: interference confined to the contents
    of a declared {e uncut} channel between the active and viewing
    colours is sanctioned rather than flagged. Leave it off to check
    Proof of Separability proper — under which an uncut system rightly
    fails (the paper's wire-cutting argument) — and turn it on only
    when knowingly checking a system that runs with its channels
    connected, such as a federation shard. On a fully cut
    configuration it never fires, so the two readings coincide. *)

val system_of_kernel :
  sanction_channels:bool -> inputs:input list -> t ->
  (t, input, output, Abstract_regime.t, (int * int) list) Sep_model.System.t
(** {!to_system} around a kernel already built, without building another:
    the system's initial state is the given kernel itself (pass a copy
    of one that keeps running), and everything else depends only on its
    configuration. *)
