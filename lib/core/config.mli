(** Separation-kernel configurations.

    A configuration is the static description of the "distributed system"
    that the kernel must recreate on one processor: the set of regimes
    (colour, private memory size, program, devices) and the explicit
    communication channels between them. The SUE was configured exactly
    this way — a fixed, small number of regimes each running a fixed
    program, with devices permanently and exclusively allocated.

    The same configuration type drives the machine-level kernel
    ({!Sue}), the behavioural kernel ({!Regime_kernel}) and the
    physically-distributed reference substrate ({!Sep_distributed}); only
    the program representation ['prog] differs. *)

type channel = {
  chan_id : int;  (** position in the channel list *)
  sender : Sep_model.Colour.t;
  receiver : Sep_model.Colour.t;
  capacity : int;  (** words buffered in the kernel, [>= 1] *)
  cut : bool;
      (** wire-cutting flag: a cut channel still accepts sends into the
          sender's end but never delivers — the two ends are aliased to
          distinct objects, as in the paper's verification argument *)
}

type 'prog regime = {
  colour : Sep_model.Colour.t;
  part_size : int;  (** private partition size in words, [>= 1] *)
  program : 'prog;
  devices : Sep_hw.Machine.device_kind list;
      (** permanently and exclusively owned; mapped into this regime's
          device slots in order *)
}

type 'prog t = {
  regimes : 'prog regime list;
  channels : channel list;
  quantum : int option;
      (** [None]: regimes run until they yield, wait or fault — the SUE's
          discipline ("regimes are given control on a round-robin basis
          and execute until they suspend voluntarily"). [Some q]: the
          kernel preempts after [q] instructions, as a general-purpose
          kernel would. Preemption changes scheduling, not any regime's
          view, so Proof of Separability holds either way. *)
}

val make :
  ?quantum:int -> regimes:'prog regime list ->
  channels:(Sep_model.Colour.t * Sep_model.Colour.t * int) list -> unit -> 'prog t
(** Build a configuration with uncut channels given as
    (sender, receiver, capacity). Raises [Invalid_argument] if
    {!validate} would fail. *)

val validate : 'prog t -> (unit, string) result
(** Distinct regime colours; positive sizes; channel endpoints name
    declared regimes; no self-channels; [chan_id]s are positions. *)

val cut_all : 'prog t -> 'prog t
(** The wire-cutting transformation: every channel cut. Proof of
    Separability applies to the cut system. *)

val cut_none : 'prog t -> 'prog t

val colours : 'prog t -> Sep_model.Colour.t list

val regime_index : 'prog t -> Sep_model.Colour.t -> int
(** Position of a colour's regime. Raises [Not_found]. *)
