(** Micro-instances for exhaustive Proof of Separability.

    Exhaustive checking enumerates every reachable state, so these
    configurations are deliberately tiny: two regimes, partitions of a few
    dozen words, single-word channel buffers and a {0,1} input alphabet.
    They are nevertheless complete separation-kernel workloads — register
    use across SWAP, device polling, wait-for-interrupt, kernel-buffered
    channels — chosen so that every seeded kernel bug in {!Mutants} is
    observable in at least one of them. *)

module Colour = Sep_model.Colour

type instance = {
  label : string;
  cfg : Sep_hw.Isa.stmt list Config.t;  (** channels already cut *)
  alphabet : Sue.input list;  (** finite input alphabet for the model *)
}

val pipeline : instance
(** "Scenario A": RED owns an Rx and a Tx device, reads words, echoes them
    to its Tx wire and sends them down a (cut) channel to BLACK, varying
    its registers with the data; BLACK polls its own Rx device and
    receives from the channel. Exercises SWAP, SEND/RECV, device I/O and
    data-dependent register contents. *)

val interrupt : instance
(** "Scenario B": RED and BLACK each own one Rx device and spend their
    lives in wait-for-interrupt, waking to consume arrivals. Exercises the
    interrupt fielding and wake-up paths. *)

val snfe_micro : instance
(** The SNFE of Section 2, at machine level: a RED regime owning the host
    line and an in-line crypto (transform) device, a CENSOR regime vetting
    the low-bandwidth headers RED emits, and a BLACK regime owning the
    network transmitter. Channels: ciphertext RED->BLACK, headers
    RED->CENSOR->BLACK — "the channels via the censor and the crypto are
    allowed, but there must be no others". The censor's procedural check
    (headers must fit in two bits) is written in machine code. *)

val preemptive : instance
(** Two regimes that compute forever and {e never yield}, hosted under a
    preemptive configuration ([quantum = 3]): the kernel takes the
    processor back after every three instructions. The SUE relied on
    voluntary suspension; this instance shows the six conditions are
    indifferent to the scheduling discipline — preemption moves the
    processor, never information. *)

val all : instance list

val scaled : regimes:int -> counter_bits:int -> instance
(** A parametric instance for scaling experiments (E10): [regimes] regimes
    each cycle a [2^counter_bits]-valued counter in private memory and
    yield; no devices or channels, so the reachable state count is
    controlled by the two parameters. *)

val find : string -> instance option
(** Look an instance up by [label] among {!all} — the CLI and the fuzzing
    engine ({!Sep_check}) address scenarios by name. *)

val drip : Sue.input list -> int -> Sue.input
(** The deterministic input drip every stepped run shares: [drip
    alphabet step] is one alphabet element on every 10th step, cycling
    through the entries after the first (the empty input), and the empty
    input otherwise — always, for an alphabet of one entry. *)
