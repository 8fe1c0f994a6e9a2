(** The simulated shared machine.

    A 16-bit, word-addressed uniprocessor in the mould of the PDP-11/34
    that hosted the SUE kernel:

    - physical memory of configurable size;
    - a base/limit memory-management unit: in user mode, data/code
      addresses below {!device_space} are relocated through a base/limit
      pair, so a regime can be confined to its partition;
    - memory-mapped device registers: virtual addresses at and above
      {!device_space} address the {e device slots} granted to the current
      regime by the MMU (two registers per slot: data and status), so
      devices are protected exactly like memory — the property the SUE
      exploits to evade mediating I/O;
    - no DMA, by construction (the paper: "DMA is permanently excluded
      from the system");
    - devices that raise interrupt requests which only the kernel can see
      and must forward ({!irq_pending}).

    The machine executes user-mode instructions; everything privileged
    (traps, scheduling, MMU programming, interrupt fielding) is delegated
    to the kernel built on top ({!Sep_core.Sue}). State is mutable for
    simulation speed; {!copy}, {!equal} and {!hash} support the
    state-pair checks of Proof of Separability.

    {2 Layout}

    A machine keeps its state words in one [Bytes] buffer, 2 bytes a
    16-bit word, at fixed word offsets: the eight registers; the MMU
    device slots, [max 8 (num_devices t)] of them, with the slots past
    the granted count held at 0; the trap frame and the MMU shadow
    registers; data, status and IRQ line for each device; then memory.
    Device kinds are configuration, in an immutable array that copies
    share. Four scalars stay record fields: the flags and the mode (one
    int), and the MMU base, limit and slot count. The kernel reads them
    on every instruction, and there a field is one load where a buffer
    word is an offset computation, a 16-bit load and a tag, on the path
    of every fetch and every memory access.
    The device-touch record behind {!devices_changed} and the
    instruction counter are bookkeeping and stay outside the buffer.

    So {!copy} is a record copy plus one [Bytes.copy], {!equal} compares
    the four scalars, then the buffers ([Bytes.equal], a memcmp), then
    the kinds (physically equal for copies of one machine), and {!hash}
    mixes the buffer's words with {!Sep_util.Mix.words16}. On a 2-vCPU
    Xeon VM, over the reachable [pipeline] states, a kernel copy
    ({!Sep_core.Sue.copy}) takes ~85 ns, an equal pair compares in ~65 ns
    and the hash, the dearest of the three, takes ~340 ns. A buffer holds
    no pointers, so its copy is one memcpy, however long. An int array
    longer than 256 words is allocated in the major heap and copied word
    by word through the write barrier: an [Array.copy] of 756 ints takes
    ~4 µs there, against ~80 ns for 105 ints, while a federation shard's
    kernel (756 memory words, 24 devices) copies in ~0.25 µs.

    Every accessor below checks its register, device or address, and
    raises [Invalid_argument] outside the machine. *)

type transform =
  | Identity
  | Xor_key of Word.t
  | Add_key of Word.t
      (** Transform devices model in-line cryptos as data, so machine states
          stay comparable with structural equality. *)

type device_kind =
  | Rx  (** receives words from the external world; raises an IRQ per word *)
  | Tx  (** emits words to the external world *)
  | Xform of transform  (** write a word, read back its image *)

type fault =
  | Illegal_instruction of Word.t
  | Mem_violation of int  (** offending virtual address *)
  | Device_violation of int

type step_result =
  | Stepped  (** one instruction executed normally *)
  | Trapped of int  (** the program executed [Trap n] *)
  | Waiting  (** the program executed [Halt] (wait-for-interrupt) *)
  | Returned  (** kernel mode only: the program executed [Rti] *)
  | Faulted of fault

type mode =
  | User
  | Kernel

type t

val device_space : int
(** Virtual addresses at or above this constant address device slots. *)

(** {1 Privilege and trap hardware}

    The machine has two modes. In [User] mode, addresses are relocated
    through the MMU and the privileged state below is unreachable. In
    [Kernel] mode, addresses below the memory size are {e physical}, and
    two hardware register files appear in the address space:

    - the {b trap frame} at {!frame_base}: the eight general registers,
      the flags and the trap cause as dumped by {!enter_kernel} — words
      [frame_base+0 .. +7] (registers), [+8] (flags, Z in bit 0, N in
      bit 1), [+9] (cause). [Rti] reloads registers and flags from the
      frame and drops back to [User] mode.
    - the {b MMU control registers} at {!mmu_base}: [+0] base, [+1]
      limit, [+2] device-slot count, [+3 .. +10] slot ids. Every write
      re-programs the live MMU from these shadows.

    This is how the separation kernel can itself be machine code: traps
    and interrupts dump the interrupted context where kernel code can
    reach it, and the kernel's last instruction is [Rti]. *)

val frame_base : int
val mmu_base : int

val mode : t -> mode

val enter_kernel : t -> cause:int -> vector:int -> unit
(** The hardware trap sequence: dump registers, flags and [cause] into the
    trap frame, enter [Kernel] mode, continue at physical [vector]. *)

val cause_swap : int
val cause_send : int
val cause_recv : int
val cause_bad_trap : int
val cause_wait : int
val cause_fault : int
val cause_resched : int
(** Conventional cause codes: traps 0-2 use their trap number; other traps
    report {!cause_bad_trap}; [cause_wait], [cause_fault] and
    [cause_resched] identify WAIT, faults and interrupt-driven
    rescheduling. *)

val create : mem_words:int -> devices:device_kind list -> t
(** A machine with zeroed memory and registers and idle devices. *)

val mem_size : t -> int
val num_devices : t -> int

(** {1 Privileged (kernel-only) state access} *)

val read_phys : t -> int -> Word.t
(** Physical read; raises [Invalid_argument] when out of range. *)

val read_phys_slice : t -> int -> int -> Word.t array
(** [read_phys_slice t a n] is a fresh copy of the [n] words from
    physical address [a]; raises [Invalid_argument] when any is out of
    range. *)

val read_phys_words : t -> int -> int -> Bytes.t
(** [read_phys_words t a n] is a copy of the [n] words from physical
    address [a], packed 2 bytes a word in the host's byte order (read one
    back with [Bytes.get_uint16_ne]): one [Bytes.sub] of the buffer.
    Raises [Invalid_argument] when any is out of range. *)

val write_phys : t -> int -> Word.t -> unit

val write_phys_words : t -> int -> Bytes.t -> unit
(** [write_phys_words t a b] writes the packed words [b] (as
    {!read_phys_words} returns them) from physical address [a]; raises
    [Invalid_argument] when [b] has an odd length or any word falls
    outside memory. *)

val get_reg : t -> int -> Word.t
val set_reg : t -> int -> Word.t -> unit

val get_flags : t -> bool * bool
(** (Z, N) condition codes. *)

val set_flags : t -> bool * bool -> unit

val set_mmu : t -> base:int -> limit:int -> dev_slots:int array -> unit
(** Program the MMU for the regime about to run: its partition window and
    the device ids granted to its slots. Raises [Invalid_argument] when a
    slot id is outside [0 .. num_devices t - 1] or when there are more
    slots than the MMU has ([max 8 (num_devices t)]). *)

val mmu_state : t -> int * int * int array
(** The live MMU: base, limit and the granted device ids, in slot order
    (a fresh array). *)

val read_control : t -> int -> Word.t
(** [read_control t a] reads a privileged register by its kernel-mode
    address: a trap-frame word ([frame_base .. frame_base + 9]) or an MMU
    control register ([mmu_base .. mmu_base + 10]). Raises
    [Invalid_argument] elsewhere. *)

(** {1 Devices} *)

val device_kind : t -> int -> device_kind

val device_input : t -> int -> Word.t -> unit
(** External world delivers a word to an [Rx] device: latches the data
    register, sets status, raises the IRQ line. Raises [Invalid_argument]
    on a non-[Rx] device. *)

val complete_transmissions : t -> unit
(** Every [Tx] device with a word pending (status 1) completes its
    transmission: its status drops back to 0. The word stays in the data
    register. *)

val device_regs : t -> int -> Word.t * Word.t
(** (data, status) registers of a device, unprotected — kernel/test use. *)

val device_data : t -> int -> Word.t
val device_status : t -> int -> Word.t
(** The two halves of {!device_regs}, without building the pair. *)

val set_device_regs : t -> int -> data:Word.t -> status:Word.t -> unit

val irq_pending : t -> int -> bool
(** Whether a device's IRQ line is raised and not yet fielded. *)

val field_irq : t -> int -> unit
(** Kernel acknowledges (lowers) a device's IRQ line. *)

val raise_irq : t -> int -> unit
(** Assert a device's IRQ line without latching data — models a spurious
    or duplicated interrupt (fault injection; any device kind). *)

(** {1 Execution} *)

val step_user : t -> step_result
(** Fetch (through the MMU, at the PC), decode, execute one user-mode
    instruction. On [Trapped]/[Waiting] the PC points after the trapping
    instruction. On [Faulted] the PC is left at the faulting
    instruction. *)

val store_user : t -> int -> Word.t -> bool
(** Write through the current MMU mapping; [false] on a violation. *)

val devices_changed : t -> int array -> bool
(** [devices_changed t ds]: whether the last {!step_user} (or
    {!store_user}) left some device of [ds] with a (data, status) pair
    that differs from the pair it had before. This is the before/after
    comparison of every device in [ds], without the snapshot: the machine
    records the first touch of each device during the instruction — at
    most two, the fetch and one load or store — with the pair before
    it. A write that leaves both registers as they were, or two touches
    that cancel out, is no change. The record is bookkeeping, not state:
    {!copy}, {!equal} and {!hash} ignore it. *)

val instruction_count : t -> int

(** {1 Snapshots, for verification} *)

val copy : t -> t
(** Deep copy; the copy evolves independently. It shares only the device
    kinds, which never change. *)

val equal : t -> t -> bool
(** Equality of the full machine state (memory, registers, flags, mode,
    MMU, trap frame, MMU shadow, devices, IRQ lines, device kinds); the
    instruction counter and the touch record are not state. *)

val hash : t -> int
(** Mixes every word {!equal} compares, so equal machines hash alike and
    machines that differ anywhere almost never do. The order is fixed,
    because pinned digests fold hash values in: memory, registers, flags
    and mode, base, limit, slots, trap frame, MMU shadow, then one word
    per device. *)

val pp : Format.formatter -> t -> unit
(** Compact dump: registers, flags, MMU, devices and a memory digest. *)
