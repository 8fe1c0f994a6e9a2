(** Fault-tolerant request/response services over the kernel federation.

    The paper's §6 names the systems a separation kernel exists to host —
    the MLS file server, the printer server, authentication, the ACCAT
    Guard — and this module is the layer that lets their reproductions
    survive the federation's failure modes. A {e deployment} places [n]
    client regimes on one shard and [m] server replicas on [m] more; every
    (client, replica) pair gets a dedicated worker regime and a dedicated
    request/response channel pair, so each Tx stream is single-source and
    the declared channel graph is exactly the request paths. All traffic
    is real words through real {!Sep_core.Sue} channels, bridged across
    shards by {!Sep_fed.Fed}'s NICs; the regimes run small ISA forwarder
    loops, and the application logic — the durable store behind the
    stateless shard frontends — lives here, driving the federation through
    {!Fed.push_input}/{!Fed.take_outputs}.

    The fault-tolerance contract, verified end to end by {!finish}:

    - {b Wire integrity}: three-word frames ({!Sep_components.Protocol})
      with monotone per-client request ids and end-to-end checksums; the
      decoders resync within a frame of any corrupted word.
    - {b At-least-once trying}: per-request deadline timeouts, bounded
      retry with capped exponential backoff and deterministic
      ({!Sep_util.Prng.stream}-derived) jitter, failover across replicas.
    - {b At-most-once effects}: a replay cache keyed client×request id in
      the shared store dedups retries, so effects commit exactly once.
    - {b Load shedding}: a replica whose inbox backs up answers with a
      definite [Shed] reply — never a silent drop — and a per-client,
      per-replica circuit breaker stops hammering a failing replica.
    - {b Degraded modes}: with every replica unavailable, a printer job
      spools client-side and drains on rejoin, file-server reads are
      answered from the last output-commit checkpoint, the Guard fails
      closed, and everything else fails fast — all definite outcomes.

    Every accepted request therefore ends in an exactly-once committed
    effect or a definite client-visible failure; {!contract} counts the
    ways that could go wrong (lost, duplicated, orphaned effects;
    unresolved requests) and {!finish} reports them. *)

module Colour = Sep_model.Colour
module Config = Sep_core.Config
module Fed = Sep_fed.Fed
module Fault_plan = Sep_robust.Fault_plan
module Protocol = Sep_components.Protocol
module Telemetry = Sep_obs.Telemetry

(** {1 Applications} *)

(** What one application request does to the durable store. [Commit]
    is the only constructor that records an effect. *)
type reply =
  | Commit of int  (** effectful success: exactly-once matters *)
  | Ok of int  (** pure success (reads, status probes) *)
  | Denied of int  (** policy refusal — a healthy, definite reply *)
  | Notfound of int

(** What a client does when {e no} replica is available. *)
type degraded =
  | Fail_fast  (** definite local failure, nothing retained *)
  | Fail_closed  (** the Guard's posture: definite DENY *)
  | Read_cached  (** pure ops answered from the last committed checkpoint *)
  | Spool  (** effectful ops queued client-side, drained on rejoin *)

type app = {
  ap_apply : client:int -> op:int -> arg:int -> reply;
      (** execute against the live store (the engine dedups first) *)
  ap_checkpoint : unit -> unit;
      (** called after every committed effect — the output-commit fence
          {!Read_cached} serves from *)
  ap_read_cached : client:int -> op:int -> arg:int -> int option;
      (** answer a pure op from the checkpoint; [None] refuses *)
  ap_degraded : op:int -> degraded;
  ap_effectful : int -> bool;
      (** whether an op can commit — decides {!O_gave_up} vs {!O_unknown}
          when the retry budget dies with every replica unreachable *)
  ap_op_name : int -> string;
}

type deployment = {
  dp_name : string;
  dp_clients : int;  (** client regimes, all on shard 0 (at most 8) *)
  dp_replicas : int;  (** server replicas, shard 1+j each (at most 4) *)
  dp_mk_app : unit -> app;  (** fresh application state per engine *)
  dp_workload : Sep_util.Prng.t -> int * int;  (** draw one (op, arg) *)
}

val spec_of : deployment -> Fed.spec
(** The federation spec a deployment runs on: client regimes with one
    Rx/Tx device pair per replica, one worker regime per (client,
    replica) pair with its own Rx/Tx, and a dedicated request/response
    channel pair between each — every channel inter-shard, every Tx
    stream single-source. Raises [Invalid_argument] when the client or
    replica count exceeds what regime device slots allow. *)

(** {1 Tuning} *)

type tuning = {
  tn_deadline : int;  (** steps before an attempt times out; [>= 1] *)
  tn_max_attempts : int;  (** [>= 1] *)
  tn_backoff : int;  (** base backoff, doubled per attempt; [>= 0] *)
  tn_backoff_cap : int;  (** [>= 0] *)
  tn_jitter : int;  (** jitter drawn uniformly below this, per retry; [>= 0], [0] as [1] *)
  tn_think_min : int;  (** client think time between requests...; [>= 0] *)
  tn_think_max : int;
      (** ...drawn uniformly in this range (0 = burst); [tn_think_min <= tn_think_max < max_int] *)
  tn_service_interval : int;  (** a replica serves one request per this many steps; [>= 1] *)
  tn_shed_threshold : int;  (** inbox length at which new arrivals shed; [>= 1] *)
  tn_breaker_threshold : int;  (** consecutive failures that open the breaker; [>= 1] *)
  tn_breaker_cooldown : int;  (** steps the breaker stays open; [>= 0] *)
}
(** {!build} rejects a tuning with a field outside its range. *)

val default_tuning : tuning
(** Patience sized so a request outlives both the loaded round trip
    (forwarder regimes move roughly a word per rotation, so a frame's
    round trip runs a few hundred federation steps) and any outage the
    federation recovers from (crash detection + warm reboot, or a
    partition window): deadline 600, 4 attempts, backoff 32 capped at
    128, jitter below 8, think 2–20, service interval 2, shed at 3,
    breaker opens after 3 failures for 400 steps. *)

(** {1 Outcomes and the contract} *)

type outcome =
  | O_committed of int  (** server-confirmed effectful success *)
  | O_replied of int * int  (** definite non-effect reply: (status, value) *)
  | O_shed  (** definite [Rejected] under load shedding *)
  | O_degraded of int  (** answered locally from the checkpoint *)
  | O_spooled  (** retained client-side; drains as a fresh request *)
  | O_fail_closed  (** the Guard's definite local DENY *)
  | O_fail_fast  (** definite local failure, no replica available *)
  | O_gave_up  (** retry budget exhausted on a pure op: definite failure *)
  | O_unknown
      (** retry budget exhausted on an {e effectful} op with the whole
          server side unreachable: the commit status is definitely
          reported as unknown — the at-most-once boundary no client of a
          permanently dead service can cross. Dedup makes this reachable
          only under total, unrecovered server loss: while any replica
          answers, a retry fetches the cached reply instead. *)
  | O_client_dead  (** the client's own node was abandoned *)

val outcome_name : outcome -> string

type record = {
  rr_client : int;
  rr_rid : int;
  rr_op : int;
  rr_arg : int;
  rr_issued : int;
  rr_attempts : int;
  rr_outcome : outcome option;  (** [None]: unresolved — a contract breach *)
  rr_resolved : int;  (** step, [-1] while unresolved *)
}

type contract = {
  ct_requests : int;
  ct_resolved : int;
  ct_unresolved : int;
  ct_committed : int;  (** requests whose outcome is {!O_committed} *)
  ct_effects : int;  (** effects in the ledger *)
  ct_duplicate_effects : int;  (** same (client, rid) committed twice *)
  ct_lost_effects : int;  (** committed outcome with no ledger entry *)
  ct_orphan_effects : int;
      (** ledger entry whose request did not end committed (a request
          that ended {!O_unknown} or {!O_client_dead} is exempt:
          at-most-once is all a dead service or a dead client can be
          owed — but duplicates still count) *)
  ct_ok : bool;
}

val contract_to_json : contract -> Sep_util.Json.t

(** {1 The engine} *)

type t

val build :
  ?policy:Fed.policy ->
  ?plan:Fault_plan.t ->
  ?monitor:bool ->
  ?tuning:tuning ->
  seed:int ->
  deployment ->
  t
(** Assemble the federation for {!spec_of} and the service state around
    it. Raises [Invalid_argument] naming the field when a {!tuning}
    field is outside its range. All randomness (workload draws, think
    times, retry jitter) comes from per-client {!Sep_util.Prng.stream}
    substreams of [seed], so a run is deterministic and independent of
    any [-j] above it. *)

val fed : t -> Fed.t
val telemetry : t -> Telemetry.t
(** Live counters: [svc.requests], [svc.commits], [svc.retries],
    [svc.timeouts], [svc.dedup_hits], [svc.shed], [svc.spooled],
    [svc.spool_drained], [svc.degraded_reads], [svc.fail_closed],
    [svc.breaker_open], [svc.stale_replies], [svc.resync_words]; the
    [svc.rtt_steps] histogram; [svc.spool_depth]/[svc.inbox_depth]
    gauges. *)

val step : t -> unit
(** One service step: one {!Fed.step}; decode the Tx words it surfaced
    (request arrivals at replicas — shed or enqueue — and response
    deliveries at clients); rate-limited replica processing with dedup
    against the replay cache; then per-client timers — due resends,
    deadline timeouts with backoff/failover, new issues, spool drains. *)

val run : t -> steps:int -> unit

type result = {
  sr_records : record list;  (** issue order *)
  sr_effects : (int * int * int * int) list;  (** (client, rid, op, step) *)
  sr_contract : contract;
  sr_spool_held : int;  (** jobs still spooled at the end *)
  sr_fed : Fed.observation;
}

val finish : ?drain:int -> t -> result
(** Stop issuing new workload, keep stepping until every in-flight
    request resolves (at most [drain] steps, default 3000 — beyond any
    remaining retry patience), then close the federation and audit the
    ledger against the records. *)
