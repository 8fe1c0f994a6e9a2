module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine
module Config = Sep_core.Config
module Fed = Sep_fed.Fed
module Fault_plan = Sep_robust.Fault_plan
module Protocol = Sep_components.Protocol
module Telemetry = Sep_obs.Telemetry
module Trace = Sep_obs.Trace
module Prng = Sep_util.Prng
module J = Sep_util.Json

(* -- Applications ------------------------------------------------------------ *)

type reply =
  | Commit of int
  | Ok of int
  | Denied of int
  | Notfound of int

type degraded =
  | Fail_fast
  | Fail_closed
  | Read_cached
  | Spool

type app = {
  ap_apply : client:int -> op:int -> arg:int -> reply;
  ap_checkpoint : unit -> unit;
  ap_read_cached : client:int -> op:int -> arg:int -> int option;
  ap_degraded : op:int -> degraded;
  ap_effectful : int -> bool;
  ap_op_name : int -> string;
}

type deployment = {
  dp_name : string;
  dp_clients : int;
  dp_replicas : int;
  dp_mk_app : unit -> app;
  dp_workload : Prng.t -> int * int;
}

(* -- Wire status codes ------------------------------------------------------- *)

let st_commit = 0
let st_ok = 1
let st_denied = 2
let st_notfound = 3
let st_shed = 4

let status_of_reply = function
  | Commit v -> (st_commit, v)
  | Ok v -> (st_ok, v)
  | Denied v -> (st_denied, v)
  | Notfound v -> (st_notfound, v)

(* -- Forwarder regimes ------------------------------------------------------- *)

(* The ISA programs are pure pipes, shaped like {!Fed_scenarios}'s:
   r6 = device base, r5 = scratch, r0/r1/r2 = trap arguments, r4 = the
   word in flight, r3 = a did-work flag. A pass that moved any word loops
   again without yielding — the greedy drain that keeps a frame's words
   moving while they are latched — and an idle pass yields. Service
   logic never appears down here: the regimes cannot tell a request from
   a response, which is what keeps the channel graph the whole policy. *)

let device_base = [ Isa.Instr (Isa.Loadi (6, 1)); Isa.Instr (Isa.Shl (6, 15)) ]

let send_retry ~ch ~label ~next =
  [
    Isa.Label label;
    Isa.Instr (Isa.Loadi (0, ch));
    Isa.Instr (Isa.Mov (1, 4));
    Isa.Instr (Isa.Trap 1);
    Isa.Instr (Isa.Loadi (5, 1));
    Isa.Instr (Isa.Cmp (2, 5));
    Isa.Branch_eq next;
    Isa.Instr (Isa.Trap 0);
    Isa.Branch label;
  ]

(* A client regime bridges the engine to every replica: per replica j,
   Rx slot j (requests in) forwards down the request channel, and the
   response channel drains to Tx slot m+j (replies out). *)
let client_program ~m ~chans =
  device_base
  @ [ Isa.Label "loop"; Isa.Instr (Isa.Loadi (3, 0)) ]
  @ List.concat
      (List.init m (fun j ->
           let req, resp = chans j in
           let norx = Printf.sprintf "norx%d" j
           and sent = Printf.sprintf "sent%d" j
           and noresp = Printf.sprintf "noresp%d" j in
           [
             Isa.Instr (Isa.Loadi (5, 0));
             Isa.Instr (Isa.Load (1, 6, (2 * j) + 1));
             Isa.Instr (Isa.Cmp (1, 5));
             Isa.Branch_eq norx;
             Isa.Instr (Isa.Load (4, 6, 2 * j));
           ]
           @ send_retry ~ch:req ~label:(Printf.sprintf "sreq%d" j) ~next:sent
           @ [
               Isa.Label sent;
               Isa.Instr (Isa.Loadi (3, 1));
               Isa.Label norx;
               Isa.Instr (Isa.Loadi (0, resp));
               Isa.Instr (Isa.Trap 2);
               Isa.Instr (Isa.Loadi (5, 1));
               Isa.Instr (Isa.Cmp (2, 5));
               Isa.Branch_ne noresp;
               Isa.Instr (Isa.Store (1, 6, 2 * (m + j)));
               Isa.Instr (Isa.Loadi (3, 1));
               Isa.Label noresp;
             ]))
  @ [
      Isa.Instr (Isa.Loadi (5, 0));
      Isa.Instr (Isa.Cmp (3, 5));
      Isa.Branch_ne "loop";
      Isa.Instr (Isa.Trap 0);
      Isa.Branch "loop";
    ]

(* A worker regime serves one (client, replica) pair: the request channel
   drains to its Tx (slot 1 — the engine's ear), and its Rx (slot 0 —
   the engine's mouth) forwards down the response channel. *)
let worker_program ~req ~resp =
  device_base
  @ [
      Isa.Label "loop";
      Isa.Instr (Isa.Loadi (3, 0));
      Isa.Instr (Isa.Loadi (0, req));
      Isa.Instr (Isa.Trap 2);
      Isa.Instr (Isa.Loadi (5, 1));
      Isa.Instr (Isa.Cmp (2, 5));
      Isa.Branch_ne "noreq";
      Isa.Instr (Isa.Store (1, 6, 2));
      Isa.Instr (Isa.Loadi (3, 1));
      Isa.Label "noreq";
      Isa.Instr (Isa.Loadi (5, 0));
      Isa.Instr (Isa.Load (1, 6, 1));
      Isa.Instr (Isa.Cmp (1, 5));
      Isa.Branch_eq "norx";
      Isa.Instr (Isa.Load (4, 6, 0));
    ]
  @ send_retry ~ch:resp ~label:"sresp" ~next:"sent"
  @ [
      Isa.Label "sent";
      Isa.Instr (Isa.Loadi (3, 1));
      Isa.Label "norx";
      Isa.Instr (Isa.Loadi (5, 0));
      Isa.Instr (Isa.Cmp (3, 5));
      Isa.Branch_ne "loop";
      Isa.Instr (Isa.Trap 0);
      Isa.Branch "loop";
    ]

let psize prog =
  List.length (List.filter (function Isa.Label _ -> false | _ -> true) prog) + 8

(* Channel ids: the (client i, replica j) pair owns channels
   2*(i*m + j) (request, client -> worker) and its successor (response,
   worker -> client) — every one inter-shard, so wire w carries exactly
   channel w. *)
let ch_req ~m i j = 2 * ((i * m) + j)
let ch_resp ~m i j = ch_req ~m i j + 1

let spec_of dep =
  let n = dep.dp_clients and m = dep.dp_replicas in
  if n < 1 || n > 8 then invalid_arg "Svc.spec_of: 1-8 clients";
  if m < 1 || m > 4 then invalid_arg "Svc.spec_of: 1-4 replicas (device slots)";
  let client_colour i = Colour.make (Printf.sprintf "CL%d" i) in
  let worker_colour i j = Colour.make (Printf.sprintf "W%dR%d" i j) in
  let clients =
    List.init n (fun i ->
        let prog = client_program ~m ~chans:(fun j -> (ch_req ~m i j, ch_resp ~m i j)) in
        {
          Config.colour = client_colour i;
          part_size = psize prog;
          program = prog;
          devices = List.init m (fun _ -> Machine.Rx) @ List.init m (fun _ -> Machine.Tx);
        })
  in
  let workers =
    List.concat
      (List.init n (fun i ->
           List.init m (fun j ->
               let prog = worker_program ~req:(ch_req ~m i j) ~resp:(ch_resp ~m i j) in
               {
                 Config.colour = worker_colour i j;
                 part_size = psize prog;
                 program = prog;
                 devices = [ Machine.Rx; Machine.Tx ];
               })))
  in
  let channels =
    List.concat
      (List.init n (fun i ->
           List.concat
             (List.init m (fun j ->
                  [
                    (client_colour i, worker_colour i j, 8);
                    (worker_colour i j, client_colour i, 8);
                  ]))))
  in
  let cfg = Config.make ~regimes:(clients @ workers) ~channels () in
  {
    Fed.fs_label = "svc-" ^ dep.dp_name;
    fs_cfg = cfg;
    fs_placement =
      List.init n (fun i -> (client_colour i, 0))
      @ List.concat
          (List.init n (fun i -> List.init m (fun j -> (worker_colour i j, 1 + j))));
    fs_alphabet = [ [] ];
  }

(* -- Tuning ------------------------------------------------------------------ *)

type tuning = {
  tn_deadline : int;
  tn_max_attempts : int;
  tn_backoff : int;
  tn_backoff_cap : int;
  tn_jitter : int;
  tn_think_min : int;
  tn_think_max : int;
  tn_service_interval : int;
  tn_shed_threshold : int;
  tn_breaker_threshold : int;
  tn_breaker_cooldown : int;
}

let default_tuning =
  {
    tn_deadline = 600;
    tn_max_attempts = 4;
    tn_backoff = 32;
    tn_backoff_cap = 128;
    tn_jitter = 8;
    tn_think_min = 2;
    tn_think_max = 20;
    tn_service_interval = 2;
    tn_shed_threshold = 3;
    tn_breaker_threshold = 3;
    tn_breaker_cooldown = 400;
  }

(* -- Outcomes ---------------------------------------------------------------- *)

type outcome =
  | O_committed of int
  | O_replied of int * int
  | O_shed
  | O_degraded of int
  | O_spooled
  | O_fail_closed
  | O_fail_fast
  | O_gave_up
  | O_unknown
  | O_client_dead

let outcome_name = function
  | O_committed _ -> "committed"
  | O_replied _ -> "replied"
  | O_shed -> "shed"
  | O_degraded _ -> "degraded"
  | O_spooled -> "spooled"
  | O_fail_closed -> "fail-closed"
  | O_fail_fast -> "fail-fast"
  | O_gave_up -> "gave-up"
  | O_unknown -> "unknown"
  | O_client_dead -> "client-dead"

type record = {
  rr_client : int;
  rr_rid : int;
  rr_op : int;
  rr_arg : int;
  rr_issued : int;
  rr_attempts : int;
  rr_outcome : outcome option;
  rr_resolved : int;
}

type contract = {
  ct_requests : int;
  ct_resolved : int;
  ct_unresolved : int;
  ct_committed : int;
  ct_effects : int;
  ct_duplicate_effects : int;
  ct_lost_effects : int;
  ct_orphan_effects : int;
  ct_ok : bool;
}

let contract_to_json c =
  J.Obj
    [
      ("requests", J.Int c.ct_requests);
      ("resolved", J.Int c.ct_resolved);
      ("unresolved", J.Int c.ct_unresolved);
      ("committed", J.Int c.ct_committed);
      ("effects", J.Int c.ct_effects);
      ("duplicate_effects", J.Int c.ct_duplicate_effects);
      ("lost_effects", J.Int c.ct_lost_effects);
      ("orphan_effects", J.Int c.ct_orphan_effects);
      ("ok", J.Bool c.ct_ok);
    ]

(* -- Engine state ------------------------------------------------------------ *)

type rec_m = {
  rm_client : int;
  rm_rid : int;
  rm_op : int;
  rm_arg : int;
  rm_issued : int;
  mutable rm_attempts : int;
  mutable rm_outcome : outcome option;
  mutable rm_resolved : int;
}

type breaker = {
  mutable b_fails : int;
  mutable b_open_until : int; (* -1 = closed *)
}

type pending = {
  p_rid : int;
  p_op : int;
  p_arg : int;
  p_rec : rec_m;
  p_flow : int;
  mutable p_replica : int;
  mutable p_attempt : int;
  mutable p_deadline : int;
  mutable p_resend_at : int; (* -1 = attempt in flight *)
}

type client = {
  c_id : int;
  c_rng : Prng.t;
  c_breakers : breaker array;
  c_rsp_decoders : Protocol.decoder array; (* per replica Tx stream *)
  c_spool : (int * int) Queue.t;
  mutable c_next_rid : int;
  mutable c_pending : pending option;
  mutable c_next_issue : int;
  mutable c_pref : int; (* last replica that answered *)
}

type replica = {
  rp_id : int;
  rp_inbox : (int * Protocol.req) Queue.t; (* (client, request) *)
  rp_req_decoders : Protocol.decoder array; (* per client Tx stream *)
}

type role =
  | R_client_tx of int * int (* client i, replica j: responses arriving *)
  | R_worker_tx of int * int (* client i, replica j: requests arriving *)
  | R_silent (* an Rx device: never emits *)

type counters = {
  k_requests : Telemetry.counter;
  k_commits : Telemetry.counter;
  k_retries : Telemetry.counter;
  k_timeouts : Telemetry.counter;
  k_dedup : Telemetry.counter;
  k_shed : Telemetry.counter;
  k_spooled : Telemetry.counter;
  k_spool_drained : Telemetry.counter;
  k_degraded : Telemetry.counter;
  k_fail_closed : Telemetry.counter;
  k_breaker_open : Telemetry.counter;
  k_stale : Telemetry.counter;
  k_resync : Telemetry.counter;
  k_rtt : Telemetry.histogram;
}

type t = {
  dep : deployment;
  tuning : tuning;
  app : app;
  fedn : Fed.t;
  n : int;
  m : int;
  roles : role array;
  clients : client array;
  replicas : replica array;
  replay : (int * int, int * int) Hashtbl.t; (* (client, rid) -> (status, value) *)
  replay_fifo : int Queue.t array; (* per client, cached rids oldest first *)
  tel : Telemetry.t;
  k : counters;
  mutable effects : (int * int * int * int) list; (* newest first *)
  mutable recs : rec_m list; (* newest first *)
  mutable now : int;
  mutable issuing : bool;
  mutable max_inbox : int;
}

let worker_rx_dev t i j = (t.n * 2 * t.m) + (2 * (((i * t.m) + j)))
let client_rx_dev t i j = (i * 2 * t.m) + j

(* The ranges svc.mli documents. Outside them a step divides by zero or
   draws from an empty range, or a client has no patience or budget at
   all. *)
let check_tuning tn =
  let need ok field range =
    if not ok then invalid_arg (Printf.sprintf "Svc.build: tuning %s must be %s" field range)
  in
  need (tn.tn_deadline >= 1) "tn_deadline" ">= 1";
  need (tn.tn_max_attempts >= 1) "tn_max_attempts" ">= 1";
  need (tn.tn_backoff >= 0) "tn_backoff" ">= 0";
  need (tn.tn_backoff_cap >= 0) "tn_backoff_cap" ">= 0";
  need (tn.tn_jitter >= 0) "tn_jitter" ">= 0";
  need (tn.tn_think_min >= 0) "tn_think_min" ">= 0";
  need
    (tn.tn_think_max >= tn.tn_think_min && tn.tn_think_max < max_int)
    "tn_think_max" "in tn_think_min .. max_int - 1";
  need (tn.tn_service_interval >= 1) "tn_service_interval" ">= 1";
  need (tn.tn_shed_threshold >= 1) "tn_shed_threshold" ">= 1";
  need (tn.tn_breaker_threshold >= 1) "tn_breaker_threshold" ">= 1";
  need (tn.tn_breaker_cooldown >= 0) "tn_breaker_cooldown" ">= 0"

let build ?policy ?plan ?(monitor = false) ?(tuning = default_tuning) ~seed dep =
  check_tuning tuning;
  let spec = spec_of dep in
  let fedn = Fed.build ?policy ?plan ~monitor spec in
  let n = dep.dp_clients and m = dep.dp_replicas in
  let roles =
    Array.init ((n * 2 * m) + (n * m * 2)) (fun d ->
        if d < n * 2 * m then begin
          let i = d / (2 * m) and s = d mod (2 * m) in
          if s < m then R_silent else R_client_tx (i, s - m)
        end
        else begin
          let r = d - (n * 2 * m) in
          let pair = r / 2 and s = r mod 2 in
          if s = 0 then R_silent else R_worker_tx (pair / m, pair mod m)
        end)
  in
  let clients =
    Array.init n (fun i ->
        let rng = Prng.stream seed i in
        {
          c_id = i;
          c_rng = rng;
          c_breakers = Array.init m (fun _ -> { b_fails = 0; b_open_until = -1 });
          c_rsp_decoders = Array.init m (fun _ -> Protocol.rsp_decoder ());
          c_spool = Queue.create ();
          c_next_rid = 0;
          c_pending = None;
          c_next_issue = i * 3; (* staggered starts *)
          c_pref = 0;
        })
  in
  let replicas =
    Array.init m (fun j ->
        {
          rp_id = j;
          rp_inbox = Queue.create ();
          rp_req_decoders = Array.init n (fun _ -> Protocol.req_decoder ());
        })
  in
  let tel = Telemetry.create () in
  let k =
    {
      k_requests = Telemetry.counter tel "svc.requests";
      k_commits = Telemetry.counter tel "svc.commits";
      k_retries = Telemetry.counter tel "svc.retries";
      k_timeouts = Telemetry.counter tel "svc.timeouts";
      k_dedup = Telemetry.counter tel "svc.dedup_hits";
      k_shed = Telemetry.counter tel "svc.shed";
      k_spooled = Telemetry.counter tel "svc.spooled";
      k_spool_drained = Telemetry.counter tel "svc.spool_drained";
      k_degraded = Telemetry.counter tel "svc.degraded_reads";
      k_fail_closed = Telemetry.counter tel "svc.fail_closed";
      k_breaker_open = Telemetry.counter tel "svc.breaker_open";
      k_stale = Telemetry.counter tel "svc.stale_replies";
      k_resync = Telemetry.counter tel "svc.resync_words";
      k_rtt = Telemetry.histogram tel "svc.rtt_steps";
    }
  in
  {
    dep;
    tuning;
    app = dep.dp_mk_app ();
    fedn;
    n;
    m;
    roles;
    clients;
    replicas;
    replay = Hashtbl.create 256;
    replay_fifo = Array.init n (fun _ -> Queue.create ());
    tel;
    k;
    effects = [];
    recs = [];
    now = 0;
    issuing = true;
    max_inbox = 0;
  }

let fed t = t.fedn
let telemetry t = t.tel

(* -- Breakers ---------------------------------------------------------------- *)

let breaker_available t b =
  b.b_open_until < 0 || t.now >= b.b_open_until

let breaker_fail t b =
  b.b_fails <- b.b_fails + 1;
  if b.b_fails >= t.tuning.tn_breaker_threshold then begin
    if b.b_open_until < t.now then Telemetry.incr t.k.k_breaker_open;
    b.b_open_until <- t.now + t.tuning.tn_breaker_cooldown
  end

let breaker_ok b =
  b.b_fails <- 0;
  b.b_open_until <- -1

(* A replica is worth sending to when its breaker admits it and its node
   has not been written off by the supervisor. *)
let replica_usable t c j =
  breaker_available t c.c_breakers.(j)
  && Fed.shard_state t.fedn ~shard:(1 + j) <> Fed.Abandoned

let choose_replica t c =
  let rec go k =
    if k >= t.m then None
    else begin
      let j = (c.c_pref + k) mod t.m in
      if replica_usable t c j then Some j else go (k + 1)
    end
  in
  go 0

(* -- Client side ------------------------------------------------------------- *)

let resolve t c p outcome =
  p.p_rec.rm_outcome <- Some outcome;
  p.p_rec.rm_resolved <- t.now;
  c.c_pending <- None;
  Trace.flow_end ~cat:"svc" ~id:p.p_flow "svc.request";
  Telemetry.observe t.k.k_rtt (float_of_int (t.now - p.p_rec.rm_issued));
  let think =
    t.tuning.tn_think_min
    + Prng.int c.c_rng (t.tuning.tn_think_max - t.tuning.tn_think_min + 1)
  in
  c.c_next_issue <- t.now + think

let send_attempt t c p j =
  p.p_replica <- j;
  p.p_resend_at <- -1;
  p.p_deadline <- t.now + t.tuning.tn_deadline;
  p.p_rec.rm_attempts <- p.p_rec.rm_attempts + 1;
  let words =
    Protocol.req_words { Protocol.rq_op = p.p_op; rq_rid = p.p_rid; rq_arg = p.p_arg }
  in
  Fed.push_input t.fedn ~device:(client_rx_dev t c.c_id j) words

(* Degraded resolution: what a client does with a request when no replica
   is available — at issue time only, for the effectful policies, so a
   spooled job can never race an in-flight copy of itself. *)
let resolve_degraded t c p =
  match t.app.ap_degraded ~op:p.p_op with
  | Spool ->
    Queue.add (p.p_op, p.p_arg) c.c_spool;
    Telemetry.incr t.k.k_spooled;
    resolve t c p O_spooled
  | Read_cached -> begin
    match t.app.ap_read_cached ~client:c.c_id ~op:p.p_op ~arg:p.p_arg with
    | Some v ->
      Telemetry.incr t.k.k_degraded;
      resolve t c p (O_degraded v)
    | None -> resolve t c p O_fail_fast
  end
  | Fail_closed ->
    Telemetry.incr t.k.k_fail_closed;
    resolve t c p O_fail_closed
  | Fail_fast -> resolve t c p O_fail_fast

let exhaust t c p =
  if t.app.ap_effectful p.p_op && p.p_rec.rm_attempts > 0 then resolve t c p O_unknown
  else resolve t c p O_gave_up

let issue t c ~from_spool (op, arg) =
  let rid = c.c_next_rid in
  c.c_next_rid <- (c.c_next_rid + 1) land 0xff;
  let rm =
    {
      rm_client = c.c_id;
      rm_rid = rid;
      rm_op = op;
      rm_arg = arg;
      rm_issued = t.now;
      rm_attempts = 0;
      rm_outcome = None;
      rm_resolved = -1;
    }
  in
  t.recs <- rm :: t.recs;
  Telemetry.incr t.k.k_requests;
  if from_spool then Telemetry.incr t.k.k_spool_drained;
  let flow =
    Trace.flow_start ~cat:"svc"
      ~args:
        [
          ("client", J.Int c.c_id);
          ("rid", J.Int rid);
          ("op", J.String (t.app.ap_op_name op));
        ]
      "svc.request"
  in
  let p =
    {
      p_rid = rid;
      p_op = op;
      p_arg = arg;
      p_rec = rm;
      p_flow = flow;
      p_replica = 0;
      p_attempt = 0;
      p_deadline = 0;
      p_resend_at = -1;
    }
  in
  c.c_pending <- Some p;
  match choose_replica t c with
  | Some j -> send_attempt t c p j
  | None -> resolve_degraded t c p

let backoff_delay t c attempt =
  let base = min t.tuning.tn_backoff_cap (t.tuning.tn_backoff lsl (attempt - 1)) in
  base + Prng.int c.c_rng (max 1 t.tuning.tn_jitter)

(* Deadline and resend timers, then fresh issues. A client whose own node
   the supervisor abandoned is dead: everything resolves [O_client_dead]
   and nothing further issues — there is no one left to answer. *)
let client_tick t c ~client_node_dead =
  if client_node_dead then begin
    match c.c_pending with
    | Some p -> resolve t c p O_client_dead
    | None -> ()
  end
  else begin
    (match c.c_pending with
    | Some p when p.p_resend_at >= 0 && t.now >= p.p_resend_at ->
      if p.p_attempt >= t.tuning.tn_max_attempts then exhaust t c p
      else begin
        match choose_replica t c with
        | Some j ->
          Telemetry.incr t.k.k_retries;
          Trace.instant ~cat:"svc"
            ~args:[ ("client", J.Int c.c_id); ("rid", J.Int p.p_rid); ("replica", J.Int j) ]
            "svc.retry";
          send_attempt t c p j
        | None ->
          (* Nothing to send to. Pure ops can degrade definitively;
             otherwise burn an attempt waiting for a replica to return. *)
          if t.app.ap_degraded ~op:p.p_op = Read_cached then resolve_degraded t c p
          else begin
            p.p_attempt <- p.p_attempt + 1;
            p.p_resend_at <- t.now + backoff_delay t c p.p_attempt
          end
      end
    | Some p when p.p_resend_at < 0 && t.now >= p.p_deadline ->
      Telemetry.incr t.k.k_timeouts;
      breaker_fail t c.c_breakers.(p.p_replica);
      p.p_attempt <- p.p_attempt + 1;
      if p.p_attempt >= t.tuning.tn_max_attempts then exhaust t c p
      else p.p_resend_at <- t.now + backoff_delay t c p.p_attempt
    | _ -> ());
    if c.c_pending = None && t.now >= c.c_next_issue then begin
      if not (Queue.is_empty c.c_spool) then begin
        match choose_replica t c with
        | Some _ -> issue t c ~from_spool:true (Queue.pop c.c_spool)
        | None -> if t.issuing then issue t c ~from_spool:false (t.dep.dp_workload c.c_rng)
      end
      else if t.issuing then issue t c ~from_spool:false (t.dep.dp_workload c.c_rng)
    end
  end

let handle_reply t c j (r : Protocol.rsp) =
  match c.c_pending with
  | Some p when p.p_rid = r.Protocol.rs_rid ->
    if r.Protocol.rs_status = st_shed then begin
      Telemetry.incr t.k.k_shed;
      breaker_fail t c.c_breakers.(j);
      resolve t c p O_shed
    end
    else begin
      breaker_ok c.c_breakers.(j);
      c.c_pref <- j;
      if r.Protocol.rs_status = st_commit then begin
        resolve t c p (O_committed r.Protocol.rs_value)
      end
      else resolve t c p (O_replied (r.Protocol.rs_status, r.Protocol.rs_value))
    end
  | _ -> Telemetry.incr t.k.k_stale

(* -- Server side ------------------------------------------------------------- *)

let send_reply t i j rsp =
  Fed.push_input t.fedn ~device:(worker_rx_dev t i j) (Protocol.rsp_words rsp)

let server_arrival t rp i (req : Protocol.req) =
  if Queue.length rp.rp_inbox >= t.tuning.tn_shed_threshold then
    (* Admission control: a definite Rejected reply, never a silent drop. *)
    send_reply t i rp.rp_id
      { Protocol.rs_status = st_shed; rs_rid = req.Protocol.rq_rid; rs_value = 0 }
  else begin
    Queue.add (i, req) rp.rp_inbox;
    t.max_inbox <- max t.max_inbox (Queue.length rp.rp_inbox)
  end

(* One request off the inbox: replay-cache dedup first — a retry of an
   already-committed request answers from the cache, never re-applies —
   then the application, ledger append and checkpoint on commit. The
   cache and ledger are the shared durable store every replica fronts. *)
let server_process t rp =
  if not (Queue.is_empty rp.rp_inbox) then begin
    let i, req = Queue.pop rp.rp_inbox in
    let key = (i, req.Protocol.rq_rid) in
    let status, value =
      match Hashtbl.find_opt t.replay key with
      | Some sv ->
        Telemetry.incr t.k.k_dedup;
        sv
      | None ->
        let reply =
          t.app.ap_apply ~client:i ~op:req.Protocol.rq_op ~arg:req.Protocol.rq_arg
        in
        let sv = status_of_reply reply in
        (match reply with
        | Commit _ ->
          t.effects <- (i, req.Protocol.rq_rid, req.Protocol.rq_op, t.now) :: t.effects;
          Telemetry.incr t.k.k_commits;
          t.app.ap_checkpoint ()
        | Ok _ | Denied _ | Notfound _ -> ());
        (* Wire rids are 8 bits, so a long-lived client reuses them; the
           cache holds each client's newest few so a straggler retry
           still hits while a reused rid 256 requests later misses. *)
        Hashtbl.replace t.replay key sv;
        Queue.add req.Protocol.rq_rid t.replay_fifo.(i);
        if Queue.length t.replay_fifo.(i) > 16 then
          Hashtbl.remove t.replay (i, Queue.pop t.replay_fifo.(i));
        sv
    in
    send_reply t i rp.rp_id
      { Protocol.rs_status = status; rs_rid = req.Protocol.rq_rid; rs_value = value }
  end

(* -- Stepping ---------------------------------------------------------------- *)

let step t =
  Fed.step t.fedn;
  List.iter
    (fun (d, w) ->
      match t.roles.(d) with
      | R_client_tx (i, j) -> begin
        match Protocol.feed_rsp t.clients.(i).c_rsp_decoders.(j) w with
        | Some rsp -> handle_reply t t.clients.(i) j rsp
        | None -> ()
      end
      | R_worker_tx (i, j) -> begin
        match Protocol.feed_req t.replicas.(j).rp_req_decoders.(i) w with
        | Some req -> server_arrival t t.replicas.(j) i req
        | None -> ()
      end
      | R_silent -> ())
    (Fed.take_outputs t.fedn);
  if t.now mod t.tuning.tn_service_interval = 0 then
    Array.iter (fun rp -> server_process t rp) t.replicas;
  let client_node_dead = Fed.shard_state t.fedn ~shard:0 = Fed.Abandoned in
  Array.iter (fun c -> client_tick t c ~client_node_dead) t.clients;
  t.now <- t.now + 1

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

(* -- Finishing --------------------------------------------------------------- *)

type result = {
  sr_records : record list;
  sr_effects : (int * int * int * int) list;
  sr_contract : contract;
  sr_spool_held : int;
  sr_fed : Fed.observation;
}

let freeze rm =
  {
    rr_client = rm.rm_client;
    rr_rid = rm.rm_rid;
    rr_op = rm.rm_op;
    rr_arg = rm.rm_arg;
    rr_issued = rm.rm_issued;
    rr_attempts = rm.rm_attempts;
    rr_outcome = rm.rm_outcome;
    rr_resolved = rm.rm_resolved;
  }

let audit records effects =
  (* Wire rids wrap mod 256, so (client, rid) can name several requests
     over a long run; per-client issue times are strictly increasing, so
     (client, rid, issued) is unique and an effect belongs to the newest
     matching record issued at or before it struck. *)
  let groups = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = (r.rr_client, r.rr_rid) in
      Hashtbl.replace groups k (r :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    records;
  let owner c rid step =
    match Hashtbl.find_opt groups (c, rid) with
    | None | Some [] -> None
    | Some rs -> (
      (* newest first, records having arrived in issue order *)
      match List.find_opt (fun r -> r.rr_issued <= step) rs with
      | Some r -> Some r
      | None -> Some (List.nth rs (List.length rs - 1)))
  in
  let eff_count = Hashtbl.create 64 in
  let unowned = ref 0 in
  List.iter
    (fun (c, rid, _, step) ->
      match owner c rid step with
      | None -> incr unowned
      | Some r ->
        let k = (r.rr_client, r.rr_rid, r.rr_issued) in
        Hashtbl.replace eff_count k
          (1 + Option.value ~default:0 (Hashtbl.find_opt eff_count k)))
    effects;
  let dup = Hashtbl.fold (fun _ n acc -> acc + max 0 (n - 1)) eff_count 0 in
  let committed =
    List.filter (fun r -> match r.rr_outcome with Some (O_committed _) -> true | _ -> false)
      records
  in
  let lost =
    List.length
      (List.filter
         (fun r -> not (Hashtbl.mem eff_count (r.rr_client, r.rr_rid, r.rr_issued)))
         committed)
  in
  let orphan =
    !unowned
    + List.length
        (List.filter
           (fun r ->
             Hashtbl.mem eff_count (r.rr_client, r.rr_rid, r.rr_issued)
             && match r.rr_outcome with
                | Some (O_committed _ | O_unknown | O_client_dead) -> false
                | Some _ | None -> true)
           records)
  in
  let unresolved = List.length (List.filter (fun r -> r.rr_outcome = None) records) in
  let requests = List.length records in
  {
    ct_requests = requests;
    ct_resolved = requests - unresolved;
    ct_unresolved = unresolved;
    ct_committed = List.length committed;
    ct_effects = List.length effects;
    ct_duplicate_effects = dup;
    ct_lost_effects = lost;
    ct_orphan_effects = orphan;
    ct_ok = unresolved = 0 && dup = 0 && lost = 0 && orphan = 0;
  }

let finish ?(drain = 3000) t =
  t.issuing <- false;
  let budget = ref drain in
  let in_flight () = Array.exists (fun c -> c.c_pending <> None) t.clients in
  while !budget > 0 && in_flight () do
    step t;
    decr budget
  done;
  let resync =
    Array.fold_left
      (fun acc c ->
        Array.fold_left (fun a d -> a + Protocol.decoder_skipped d) acc c.c_rsp_decoders)
      0 t.clients
    + Array.fold_left
        (fun acc rp ->
          Array.fold_left (fun a d -> a + Protocol.decoder_skipped d) acc rp.rp_req_decoders)
        0 t.replicas
  in
  Telemetry.incr ~by:resync t.k.k_resync;
  let spool_held = Array.fold_left (fun acc c -> acc + Queue.length c.c_spool) 0 t.clients in
  Telemetry.set (Telemetry.gauge t.tel "svc.spool_depth") (float_of_int spool_held);
  Telemetry.set (Telemetry.gauge t.tel "svc.inbox_depth") (float_of_int t.max_inbox);
  let records = List.rev_map freeze t.recs in
  let effects = List.rev t.effects in
  {
    sr_records = records;
    sr_effects = effects;
    sr_contract = audit records effects;
    sr_spool_held = spool_held;
    sr_fed = Fed.finish t.fedn;
  }
