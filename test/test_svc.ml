(* Tests for the fault-tolerant service layer: wire codec round-trips
   and resync, clean end-to-end contracts for all four deployments,
   dedup under tamper, shedding under burst, crash failover, recovery
   budget exhaustion under repeated same-shard crashes, partition flap,
   degraded modes with every replica down, the soak-plan generator, and
   the service campaign with determinism across -j. *)

module Svc = Sep_svc.Svc
module Svc_campaign = Sep_svc.Svc_campaign
module Fed_services = Sep_apps.Fed_services
module Fed = Sep_fed.Fed
module Fault_plan = Sep_robust.Fault_plan
module Protocol = Sep_components.Protocol
module Telemetry = Sep_obs.Telemetry
module Prng = Sep_util.Prng

let check = Alcotest.check

let counter r name =
  match Telemetry.find_counter r name with
  | Some c -> Telemetry.counter_value c
  | None -> 0

let run_service ?plan ?tuning ~seed ~steps dep =
  let t = Svc.build ?plan ?tuning ~monitor:true ~seed dep in
  Svc.run t ~steps;
  (Svc.finish t, Svc.telemetry t)

let plan_of label faults = { Fault_plan.label; faults }

(* -- Wire frames ------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let d = Protocol.req_decoder () in
  for rid = 0 to 300 do
    let r = { Protocol.rq_op = rid mod 16; rq_rid = rid land 0xff; rq_arg = (rid * 77) land 0xffff } in
    let got = List.filter_map (Protocol.feed_req d) (Protocol.req_words r) in
    check Alcotest.int (Printf.sprintf "one frame at %d" rid) 1 (List.length got);
    check Alcotest.bool "fields survive" true (List.hd got = r)
  done;
  check Alcotest.int "no resync on clean stream" 0 (Protocol.decoder_skipped d)

let test_codec_resync () =
  let d = Protocol.rsp_decoder () in
  let r1 = { Protocol.rs_status = 1; rs_rid = 7; rs_value = 42 } in
  let r2 = { Protocol.rs_status = 0; rs_rid = 8; rs_value = 99 } in
  (* a corrupted word, then two intact frames: the decoder must drop the
     bad alignment and still deliver both frames *)
  let stream = [ 0x1234 ] @ Protocol.rsp_words r1 @ Protocol.rsp_words r2 in
  let got = List.filter_map (Protocol.feed_rsp d) stream in
  check Alcotest.bool "both frames recovered" true (got = [ r1; r2 ]);
  check Alcotest.bool "resync counted" true (Protocol.decoder_skipped d > 0)

(* -- Clean runs: every deployment meets the contract ------------------------ *)

let test_clean_contract dep () =
  let r, tel = run_service ~seed:42 ~steps:4000 dep in
  let c = r.Svc.sr_contract in
  check Alcotest.bool "made progress" true (c.Svc.ct_requests > 5);
  check Alcotest.bool "contract holds" true c.Svc.ct_ok;
  check Alcotest.int "nothing unresolved" 0 c.Svc.ct_unresolved;
  check Alcotest.int "no duplicate effects" 0 c.Svc.ct_duplicate_effects;
  check Alcotest.int "no lost effects" 0 c.Svc.ct_lost_effects;
  check Alcotest.bool "no separation violation" true
    (r.Svc.sr_fed.Fed.fob_first_violation = None);
  ignore tel

let test_clean_commits () =
  let r, tel = run_service ~seed:7 ~steps:4000 Fed_services.printer in
  let c = r.Svc.sr_contract in
  check Alcotest.bool "printer committed jobs" true (c.Svc.ct_committed > 0);
  check Alcotest.int "ledger matches commits" c.Svc.ct_committed c.Svc.ct_effects;
  check Alcotest.bool "rtt histogram populated" true (counter tel "svc.requests" > 0)

(* Determinism: same seed, same everything; different seed, different
   workload. *)
let test_deterministic () =
  let r1, _ = run_service ~seed:42 ~steps:3000 Fed_services.file_server in
  let r2, _ = run_service ~seed:42 ~steps:3000 Fed_services.file_server in
  let r3, _ = run_service ~seed:43 ~steps:3000 Fed_services.file_server in
  check Alcotest.bool "identical records" true (r1.Svc.sr_records = r2.Svc.sr_records);
  check Alcotest.bool "identical effects" true (r1.Svc.sr_effects = r2.Svc.sr_effects);
  check Alcotest.bool "seed matters" true (r1.Svc.sr_records <> r3.Svc.sr_records)

(* -- Faults ----------------------------------------------------------------- *)

(* A replica crash mid-run: requests fail over to the survivor and the
   contract still holds. *)
let test_crash_failover () =
  let plan = plan_of "crash-r0" [ (900, Fault_plan.Shard_crash { shard = 1 }) ] in
  let r, tel = run_service ~plan ~seed:42 ~steps:6000 Fed_services.file_server in
  let c = r.Svc.sr_contract in
  check Alcotest.bool "contract survives a crash" true c.Svc.ct_ok;
  check Alcotest.bool "no separation violation" true
    (r.Svc.sr_fed.Fed.fob_first_violation = None);
  check Alcotest.bool "retries happened" true
    (counter tel "svc.retries" > 0 || counter tel "svc.timeouts" > 0)

(* Tampering corrupts frames in flight; retries after the timeout must
   not double-commit thanks to the replay cache. *)
let test_tamper_dedup () =
  let faults =
    List.init 6 (fun i -> (600 + (i * 500), Fault_plan.Frame_tamper { link = 0 }))
  in
  let r, _ = run_service ~plan:(plan_of "tamper" faults) ~seed:7 ~steps:8000 Fed_services.printer in
  let c = r.Svc.sr_contract in
  check Alcotest.int "no duplicate effects under tamper" 0 c.Svc.ct_duplicate_effects;
  check Alcotest.bool "contract holds under tamper" true c.Svc.ct_ok

(* Every replica crashed and abandoned: degraded modes answer. The
   printer spools; the Guard fails closed; nothing hangs unresolved. *)
let all_replicas_down dep =
  let faults =
    List.concat_map
      (fun shard -> List.init 3 (fun k -> (800 + (k * 700), Fault_plan.Shard_crash { shard })))
      [ 1; 2 ]
  in
  run_service ~plan:(plan_of "all-down" faults) ~seed:42 ~steps:8000 dep

let test_degraded_spool () =
  let r, tel = all_replicas_down Fed_services.printer in
  let c = r.Svc.sr_contract in
  check Alcotest.bool "contract holds" true c.Svc.ct_ok;
  check Alcotest.bool "jobs spooled" true
    (counter tel "svc.spooled" > 0 || r.Svc.sr_spool_held > 0)

let test_degraded_fail_closed () =
  let r, tel = all_replicas_down Fed_services.guard in
  let c = r.Svc.sr_contract in
  check Alcotest.bool "contract holds" true c.Svc.ct_ok;
  check Alcotest.bool "guard failed closed" true (counter tel "svc.fail_closed" > 0);
  let released_without_server =
    List.exists
      (fun rr ->
        match rr.Svc.rr_outcome with
        | Some (Svc.O_degraded _) -> true
        | _ -> false)
      r.Svc.sr_records
  in
  check Alcotest.bool "nothing released locally" false released_without_server

let test_degraded_read_cached () =
  let r, tel = all_replicas_down Fed_services.file_server in
  check Alcotest.bool "contract holds" true r.Svc.sr_contract.Svc.ct_ok;
  check Alcotest.bool "reads served from checkpoint" true (counter tel "svc.degraded_reads" > 0)

(* Recovery budget exhaustion: the same shard crashed more times than
   max_node_reboots — the supervisor gives up cleanly (Abandoned), the
   survivor keeps serving, and the run is byte-stable. *)
let test_reboot_budget_exhausted () =
  let faults = List.init 3 (fun k -> (800 + (k * 900), Fault_plan.Shard_crash { shard = 1 })) in
  let run () =
    run_service ~plan:(plan_of "crash-x3" faults) ~seed:42 ~steps:9000 Fed_services.file_server
  in
  let r, _ = run () in
  let r2, _ = run () in
  check Alcotest.bool "shard 1 abandoned" true
    (List.mem 1 r.Svc.sr_fed.Fed.fob_abandoned_nodes);
  check Alcotest.bool "contract holds after abandonment" true r.Svc.sr_contract.Svc.ct_ok;
  check Alcotest.bool "runs byte-identical" true (r.Svc.sr_records = r2.Svc.sr_records)

(* A flapping partition on one wire: quarantine and rejoin cycles, the
   contract still holds. *)
let test_partition_flap () =
  let faults =
    List.init 3 (fun k ->
        (700 + (k * 1200), Fault_plan.Link_partition { link = 0; window = 40 }))
  in
  let r, _ = run_service ~plan:(plan_of "flap" faults) ~seed:1 ~steps:8000 Fed_services.auth in
  check Alcotest.bool "contract holds under flapping" true r.Svc.sr_contract.Svc.ct_ok;
  check Alcotest.bool "no separation violation" true
    (r.Svc.sr_fed.Fed.fob_first_violation = None)

(* -- Soak plans -------------------------------------------------------------- *)

let test_soak_generator () =
  let nodes = { Fault_plan.ns_shards = 3; ns_links = 4 } in
  let cfg = (Svc.spec_of Fed_services.file_server).Fed.fs_cfg in
  let plans = Fault_plan.soak ~nodes ~seed:9 ~steps:5000 ~count:12 cfg in
  check Alcotest.int "requested count" 12 (List.length plans);
  List.iter
    (fun p ->
      let node_faults =
        List.filter
          (fun (_, f) ->
            match f with
            | Fault_plan.Shard_crash _ | Fault_plan.Link_partition _ | Fault_plan.Frame_tamper _ ->
              true
            | _ -> false)
          p.Fault_plan.faults
      in
      check Alcotest.bool (p.Fault_plan.label ^ ": >=3 node faults") true
        (List.length node_faults >= 3);
      List.iter
        (fun (at, _) ->
          check Alcotest.bool "fault inside the run" true (at >= 1 && at < 5000))
        p.Fault_plan.faults;
      let sorted =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) p.Fault_plan.faults
      in
      check Alcotest.bool "faults sorted" true (sorted = p.Fault_plan.faults))
    plans;
  let again = Fault_plan.soak ~nodes ~seed:9 ~steps:5000 ~count:12 cfg in
  check Alcotest.bool "soak generation deterministic" true (plans = again)

(* -- Campaign ---------------------------------------------------------------- *)

let test_campaign_smoke () =
  let r = Svc_campaign.run ~seed:42 ~steps:5000 ~soak:2 ~jobs:2 Fed_services.file_server in
  check Alcotest.bool "campaign ran cases" true (List.length r.Svc_campaign.sv_cases > 3);
  check Alcotest.bool "no violations" true (Svc_campaign.holds r);
  check Alcotest.bool "every contract ok" true (Svc_campaign.contracts_ok r)

let test_campaign_jobs_identical () =
  let r1 = Svc_campaign.run ~seed:1 ~steps:4000 ~soak:2 ~jobs:1 Fed_services.guard in
  let r2 = Svc_campaign.run ~seed:1 ~steps:4000 ~soak:2 ~jobs:3 Fed_services.guard in
  check Alcotest.bool "-j1 and -j3 reports byte-identical" true
    (Svc_campaign.report_to_jsonl r1 = Svc_campaign.report_to_jsonl r2)

(* The fed-fs report at the CLI's smoke size, byte for byte: any change
   to classification, tally or JSONL framing moves this digest. Update
   the pin only for an intended change to the report itself. *)
let test_campaign_digest () =
  check Alcotest.string "fed-fs smoke jsonl" "5506b9de256d84a68e3e323d98bbf4e5"
    (Digest.to_hex
       (Digest.string
          (Svc_campaign.report_to_jsonl
             (Svc_campaign.run ~seed:42 ~steps:2000 ~soak:1 Fed_services.file_server))))

(* -- Whole runs pinned -------------------------------------------------------- *)

let outcome_text = function
  | Svc.O_committed v -> Printf.sprintf "committed:%d" v
  | Svc.O_replied (s, v) -> Printf.sprintf "replied:%d:%d" s v
  | Svc.O_degraded v -> Printf.sprintf "degraded:%d" v
  | o -> Svc.outcome_name o

(* Everything a run reports, in one text: the records (outcome and
   resolve step included), the effects ledger, the contract, and the
   federation's audit trail, link statistics, deep-check count, per-device
   transcript and first violation. *)
let result_digest (r : Svc.result) =
  let b = Buffer.create 65536 in
  let add fmt = Printf.bprintf b fmt in
  List.iter
    (fun (rr : Svc.record) ->
      add "r %d %d %d %d %d %d %s %d\n" rr.Svc.rr_client rr.Svc.rr_rid rr.Svc.rr_op rr.Svc.rr_arg
        rr.Svc.rr_issued rr.Svc.rr_attempts
        (match rr.Svc.rr_outcome with Some o -> outcome_text o | None -> "-")
        rr.Svc.rr_resolved)
    r.Svc.sr_records;
  List.iter (fun (c, rid, op, at) -> add "e %d %d %d %d\n" c rid op at) r.Svc.sr_effects;
  add "c %s\n" (Sep_util.Json.to_string (Svc.contract_to_json r.Svc.sr_contract));
  let f = r.Svc.sr_fed in
  List.iter
    (fun (n, e) -> add "v %d %s\n" n (Sep_util.Json.to_string (Fed.node_event_to_json e)))
    f.Fed.fob_events;
  let s = f.Fed.fob_stats in
  add "s %d %d %d %d %d %d %d\n" s.Sep_distributed.Net.ls_in_flight s.ls_drops s.ls_lossy_drops
    s.ls_retransmits s.ls_acks s.ls_backoff_ceiling s.ls_partition_drops;
  add "d %d\n" f.Fed.fob_deep_checks;
  List.iter
    (fun (d, ws) -> add "o %d %s\n" d (String.concat "," (List.map string_of_int ws)))
    f.Fed.fob_outputs;
  (match f.Fed.fob_first_violation with
  | Some (shard, at) -> add "f %d %d\n" shard at
  | None -> add "f -\n");
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The benchmark's eight service runs (every deployment at seeds 42 and
   43, monitored), cut to 4,000 steps plus the drain: any change to what
   a service run does — a record, an effect, a node event, a link
   counter, a deep check, an output word — moves one of these digests.
   Update a pin only for an intended change to service behaviour. *)
let test_runs_pinned () =
  let pins =
    [
      ("fed-fs", 42, "0ff3c718fe1ea9d4c934dde5fd2f2d92");
      ("fed-fs", 43, "e9506b052f6608dbc5d94f05824219e0");
      ("fed-print", 42, "2f33478d6a0d9ded5fb6e646b1c5f0f1");
      ("fed-print", 43, "0c1376415a10e088caeab293bf19778e");
      ("fed-auth", 42, "1cc38ba9f38f0cd82929b7c9452726ae");
      ("fed-auth", 43, "7470e4a51ce47a8ff98af50ae7705b27");
      ("fed-guard", 42, "d60bd5aa7276969577f2614a923c6cc6");
      ("fed-guard", 43, "ed6bdaf0e86c1a8935c0e9c60747c26c");
    ]
  in
  let got =
    List.map
      (fun (name, seed, _) ->
        let dep = Option.get (Fed_services.find name) in
        let t = Svc.build ~monitor:true ~seed dep in
        Svc.run t ~steps:4000;
        (name, seed, result_digest (Svc.finish t)))
      pins
  in
  let row = Alcotest.(triple string int string) in
  check (Alcotest.list row) "service run digests" pins got

(* -- Fed batched frames ------------------------------------------------------ *)

(* The NIC carries each ring drain as one checksummed frame: on a clean
   run every frame decodes at its destination and the words cross. *)
let test_batch_frames () =
  let ob =
    let t = Fed.build Sep_fed.Fed_scenarios.pair in
    Fed.run t ~steps:400;
    Fed.finish t
  in
  check Alcotest.int "no rejects on clean batches" 0 ob.Fed.fob_frame_rejects;
  check Alcotest.bool "words crossed in batches" true (ob.Fed.fob_delivered > 5)

(* -- Tuning ranges ------------------------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [build] rejects each field outside its range, naming the field: a
   service interval of 0 used to divide by zero at the first step, and a
   think range with its ends swapped drew from an empty range at the
   first resolve. The defaults and every range's own edge still build
   and run. *)
let test_tuning_ranges () =
  let dep = Fed_services.file_server in
  let d = Svc.default_tuning in
  List.iter
    (fun (field, tuning) ->
      match Svc.build ~tuning ~seed:1 dep with
      | _ -> Alcotest.failf "%s out of range accepted" field
      | exception Invalid_argument msg ->
        check Alcotest.bool (Fmt.str "%S names %s" msg field) true (contains msg field))
    [
      ("tn_deadline", { d with Svc.tn_deadline = 0 });
      ("tn_max_attempts", { d with Svc.tn_max_attempts = 0 });
      ("tn_backoff", { d with Svc.tn_backoff = -1 });
      ("tn_backoff_cap", { d with Svc.tn_backoff_cap = -1 });
      ("tn_jitter", { d with Svc.tn_jitter = -1 });
      ("tn_think_min", { d with Svc.tn_think_min = -1; tn_think_max = 0 });
      ("tn_think_max", { d with Svc.tn_think_max = d.Svc.tn_think_min - 1 });
      ("tn_think_max", { d with Svc.tn_think_min = 0; tn_think_max = max_int });
      ("tn_service_interval", { d with Svc.tn_service_interval = 0 });
      ("tn_shed_threshold", { d with Svc.tn_shed_threshold = 0 });
      ("tn_breaker_threshold", { d with Svc.tn_breaker_threshold = 0 });
      ("tn_breaker_cooldown", { d with Svc.tn_breaker_cooldown = -1 });
    ];
  let edge =
    {
      Svc.tn_deadline = 1;
      tn_max_attempts = 1;
      tn_backoff = 0;
      tn_backoff_cap = 0;
      tn_jitter = 0;
      tn_think_min = 0;
      tn_think_max = 0;
      tn_service_interval = 1;
      tn_shed_threshold = 1;
      tn_breaker_threshold = 1;
      tn_breaker_cooldown = 0;
    }
  in
  List.iter
    (fun tuning ->
      let t = Svc.build ~tuning ~seed:1 dep in
      Svc.run t ~steps:400;
      check Alcotest.bool "contract holds" true (Svc.finish t).Svc.sr_contract.Svc.ct_ok)
    [ d; edge ]

(* -- Memory ------------------------------------------------------------------- *)

(* What a finished 10,000-step monitored engine retains, mostly the
   shard watches' bucket tables: one representative state and its views
   per class. A view of a post-INPUT state equal to its state is the
   state's own view, so it is kept once. *)
let test_engine_memory () =
  List.iter
    (fun dep ->
      let t = Svc.build ~monitor:true ~seed:42 dep in
      Svc.run t ~steps:10_000;
      ignore (Svc.finish t);
      let words = Obj.reachable_words (Obj.repr t) in
      check Alcotest.bool
        (Fmt.str "%s retains %d words, at most 200,000" dep.Svc.dp_name words)
        true (words <= 200_000))
    Fed_services.all

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "svc"
    [
      ("codec", [ quick "roundtrip" test_codec_roundtrip; quick "resync" test_codec_resync ]);
      ( "clean",
        List.map
          (fun d -> quick d.Svc.dp_name (test_clean_contract d))
          Fed_services.all
        @ [ quick "printer commits" test_clean_commits; quick "deterministic" test_deterministic ]
      );
      ( "faults",
        [
          quick "crash failover" test_crash_failover;
          quick "tamper dedup" test_tamper_dedup;
          quick "degraded spool" test_degraded_spool;
          quick "degraded fail-closed" test_degraded_fail_closed;
          quick "degraded read-cached" test_degraded_read_cached;
          quick "reboot budget exhausted" test_reboot_budget_exhausted;
          quick "partition flap" test_partition_flap;
        ] );
      ("soak", [ quick "generator" test_soak_generator ]);
      ( "campaign",
        [
          quick "smoke" test_campaign_smoke;
          quick "jobs identical" test_campaign_jobs_identical;
          quick "jsonl digest pinned" test_campaign_digest;
        ] );
      ("pinned", [ quick "service runs" test_runs_pinned ]);
      ("tuning", [ quick "ranges" test_tuning_ranges ]);
      ("memory", [ quick "finished monitored engine" test_engine_memory ]);
      ("fed-batch", [ quick "clean batches" test_batch_frames ]);
    ]
