(** The abstract machine of one regime.

    "To the software in each regime, the environment provided by a
    separation kernel should be indistinguishable from that of an isolated
    machine dedicated to its private use. We can call this imaginary,
    private machine the 'abstract' machine for that regime."

    A value of type {!t} is one state of that private machine: the image of
    the concrete shared machine under the regime's abstraction function
    [Phi^c] (computed by {!Sue.phi}). This module also gives the private
    machine's {e operational semantics} — an interpreter written
    independently of the kernel, against which the kernel's behaviour is
    compared by condition 1 of Proof of Separability. Keeping this
    interpreter free of any reference to the shared machine is the point:
    it is the specification. *)

module Word = Sep_hw.Word

type status =
  | Running
  | Waiting  (** executed [Halt]; resumes on a device interrupt *)
  | Parked  (** faulted; never runs again *)

type chan_end = {
  ce_chan : int;  (** global channel id *)
  ce_capacity : int;
  ce_contents : int list;  (** oldest first *)
}

type device_view = {
  dv_kind : Sep_hw.Machine.device_kind;
  dv_data : int;
  dv_status : int;
  dv_irq : bool;
}

type t = {
  mem : int array;  (** the private partition, virtually addressed from 0 *)
  regs : int array;
  flag_z : bool;
  flag_n : bool;
  status : status;
  devices : device_view array;  (** in slot order *)
  sends : chan_end array;  (** ends of channels this regime sends on *)
  recvs : chan_end array;  (** ends of channels this regime receives on *)
}

val equal : t -> t -> bool

val hash : t -> int
(** Mixes every field {!equal} compares, channel-end contents included. *)

val pp : Format.formatter -> t -> unit

(** {1 Specification semantics} *)

val step : t -> t
(** One step of the private machine: if {!status} is [Running], fetch the
    instruction at the PC from private memory and execute it; otherwise do
    nothing. Pure — the input state is not modified.

    Semantics of the kernel-mediated instructions, seen privately:
    - [Trap 0] (SWAP) is invisible: the private machine does not share its
      processor, so yielding it changes nothing.
    - [Trap 1] (SEND): [R0] names a global channel id; if it is one of
      this regime's send ends with spare capacity, [R1] is appended and
      [R2 := 1]; [R2 := 0] when full; [R2 := 2] when the channel is not
      ours.
    - [Trap 2] (RECV): pop from the named receive end into [R1] with
      [R2 := 1]; [R2 := 0] when empty (always, on a cut channel);
      [R2 := 2] when not ours.
    - Other traps, illegal instructions and memory/device violations park
      the machine.
    - [Halt] waits for an interrupt; it falls through (keeps running) when
      one of the machine's own Rx devices already holds unread data, i.e.
      when a level-triggered interrupt line is still asserted. *)

val deliver_input : t -> slot:int -> Word.t -> t
(** The private machine's view of its own I/O activity: a word arrives on
    the [Rx] device in [slot] — data latched, status set, IRQ raised and
    (the interrupt having been fielded) a [Waiting] machine resumes.
    Pure. *)

val input_stage : t -> (int * Word.t) list -> t
(** One INPUT stage of the private machine, mirroring the kernel's: busy
    [Tx] devices complete their transmissions, then each (slot, word)
    arrival is delivered as in {!deliver_input}. Pure.

    Composing [input_stage] and {!step} according to the schedule observed
    on the shared machine must replay exactly the regime's abstraction of
    the shared run — the whole-trace consequence of conditions 1–4, tested
    in the separability suite. *)
