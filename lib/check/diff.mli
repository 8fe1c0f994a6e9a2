(** Differential properties: SUE against the distributed ideal.

    Two executable forms of the paper's central claim ("the system as a
    whole is indistinguishable from one in which each regime has a machine
    of its own"):

    - {b solo isolation} at machine level: run a cut configuration whole,
      then once per colour with every {e other} regime replaced by an
      inert yield loop — the closest a shared {!Sue} machine gets to
      giving a regime a processor of its own. A colour's observable trace
      (per-Tx-device word sequences, delivered flow-controlled so the
      external world cannot double as a clock) must agree up to prefix:
      sharing the processor may slow a regime, never change what it says.
    - {b kernel vs. net} at behavioural level: the same components and
      topology hosted on {!Sep_core.Regime_kernel} and on
      {!Sep_distributed.Net} must produce {e identical} per-colour
      observable traces on generated workloads. *)

module Colour = Sep_model.Colour
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Isa = Sep_hw.Isa

val observed_tx :
  ?bugs:Sue.bug list -> ?impl:Sue.impl -> ?settle:int -> Isa.stmt list Config.t ->
  schedule:Sue.input list -> (int * int list) list
(** Run the configuration under flow-controlled delivery of [schedule]
    (step [n]'s arrivals queue until their Rx latch is free) for
    [length schedule + settle] steps (settle defaults to 48) and collect,
    per Tx device id, the word sequence observed on its wire. *)

val solo_check :
  ?impl:Sue.impl -> ?settle:int -> Isa.stmt list Config.t -> schedule:Sue.input list ->
  (Colour.t * int * string) list
(** Empty when solo isolation holds: for every colour and every Tx device
    it owns, the whole-system sequence and the solo-run sequence must be
    prefix-compatible. Each violation reports (owner, device id, detail). *)

(** {1 Kernel vs. the distributed substrate} *)

val kernel_vs_net_case :
  ?kernel_bugs:Sep_core.Regime_kernel.bug list -> seed:int -> steps:int -> unit ->
  (unit, string) result
(** Host one generated case on both substrates and compare every colour's
    observable trace for exact equality. [kernel_bugs] seed the kernel
    substrate (to show the differential detects a kernel that fails at
    its one job). *)

val kernel_vs_net : seed:int -> cases:int -> steps:int -> int * string list
(** Run [cases] independent cases; returns (cases run, mismatch
    messages — empty when the kernel is indistinguishable). *)

(** {1 Kernel vs. the reliable net over a lossy link}

    The same pinning with the physical ideal degraded: the wire drops,
    duplicates and reorders, and {!Sep_distributed.Net}'s reliable
    channel protocol (sequence numbers, acks, retransmission with capped
    backoff) must hide all of it. Content and order survive; timing does
    not, and the run may end with frames still in flight — so each wire's
    lossy delivery must be a {e prefix} of the lossless ideal's, never
    different words. *)

type reliable_case = {
  rc_mismatches : string list;  (** empty when the oracle held *)
  rc_stats : Sep_distributed.Net.link_stats;
  rc_delivered : int;  (** words received across the lossy run *)
  rc_retransmit_queue : int;
      (** the net's ["net.retransmit_queue"] gauge at run end: frames
          still sitting in sender windows awaiting acks *)
}

val kernel_vs_reliable_net_case :
  ?link:Sep_distributed.Net.link_model -> seed:int -> steps:int -> unit -> reliable_case
(** One case: a relay pipeline [A -> B -> C] driven at one word every
    three steps (throttled so the lossless substrates never shed load —
    backpressure drops are a legitimate difference from an unboundedly
    queueing reliable channel, not a separation failure), hosted on
    {!Sep_core.Regime_kernel} and on the reliable net under [link]
    (default {!Sep_distributed.Net.default_link_model}; its [lm_seed] is
    replaced by [seed]). *)

val kernel_vs_reliable_net :
  ?link:Sep_distributed.Net.link_model ->
  seed:int -> cases:int -> steps:int -> unit -> reliable_case list
(** [cases] independent cases, link seeds drawn from [seed]. *)

(** {1 The recovery campaign}

    [rushby recover]: {!Sep_robust.Campaign.run_recovery}, then the
    reliable-channel differential under a lossy link. *)

type recovery = {
  rv_report : Sep_robust.Campaign.report;
  rv_drop : int;  (** the lossy link's drop rate, percent *)
  rv_reliable : reliable_case list;
}

val recovery :
  ?jobs:int -> seed:int -> steps:int -> count:int -> drop:int -> cases:int -> net_steps:int ->
  unit -> recovery
(** The campaign over [steps]-step runs and [count] plans per scenario,
    then [cases] reliable-net cases of [net_steps] steps each. *)

val recovery_ok : recovery -> bool
(** Fail-operational holds: no separation-violating case, some case
    recovered, and no differential mismatch. *)

val recovery_lines : recovery -> Sep_util.Json.t list
(** {!Sep_robust.Campaign.report_lines}, one ["reliable-net"] line per
    differential case, then one ["recover-summary"]. *)

(** {1 The federation vs the monolithic ideal}

    The third differential: the multi-shard federation
    ({!Sep_fed.Fed}) against the same uncut global configuration on one
    kernel, driven by the same input drip under the same flow-control
    handshake. Crossing a physical wire may cost latency, never words. *)

val federation_vs_ideal :
  ?plan:Sep_robust.Fault_plan.t -> ?steps:int -> Sep_fed.Fed.spec ->
  (Colour.t * int * string) list
(** Empty when the federation is indistinguishable from the ideal: every
    global device's federated output stream is prefix-compatible with the
    monolithic run's ([steps] defaults to 600). With [plan], the same
    oracle under faults — meaningful for crash and partition plans, whose
    delay-only semantics owe prefix compatibility even mid-outage; a
    tamper plan legitimately destroys words and will be reported. *)
