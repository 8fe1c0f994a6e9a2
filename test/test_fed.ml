(* Tests for the kernel federation: clean multi-shard runs against the
   monolithic ideal, crash failover from checkpoints, partition
   quarantine and rejoin, frame-tamper rejection, node-fault plans, and
   the federated chaos campaign with the online monitor attached. *)

module Colour = Sep_model.Colour
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Abstract_regime = Sep_core.Abstract_regime
module Net = Sep_distributed.Net
module Fault_plan = Sep_robust.Fault_plan
module Fed = Sep_fed.Fed
module Fed_scenarios = Sep_fed.Fed_scenarios

let check = Alcotest.check

let outputs_of ob d = List.assoc d ob.Fed.fob_outputs

let run_clean ?policy spec ~steps =
  let t = Fed.build ?policy spec in
  Fed.run t ~steps;
  Fed.finish t

let run_plan ?policy ?monitor spec ~steps plan =
  let t = Fed.build ?policy ?monitor ~plan spec in
  Fed.run t ~steps;
  Fed.finish t

let plan_of faults = { Fault_plan.label = "directed"; faults }

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> x = y && is_prefix a' b'

(* -- Clean federation ------------------------------------------------------- *)

(* fed-pair: words dripped into RED's Rx cross the inter-shard link and
   come out of BLACK's Tx in order. *)
let test_pair_delivers () =
  let ob = run_clean Fed_scenarios.pair ~steps:400 in
  let red_echo = outputs_of ob 1 and black_tx = outputs_of ob 2 in
  check Alcotest.bool "RED echoed words" true (List.length red_echo > 5);
  check Alcotest.bool "BLACK emitted words" true (List.length black_tx > 5);
  check Alcotest.bool "BLACK's words are RED's, in order"
    true
    (is_prefix black_tx red_echo || is_prefix red_echo black_tx);
  check Alcotest.bool "words crossed the federation" true (ob.Fed.fob_delivered > 5);
  check Alcotest.int "no frames rejected" 0 ob.Fed.fob_frame_rejects;
  List.iter
    (fun (c, s) ->
      check Alcotest.bool (Colour.name c ^ " not parked") true (s <> Abstract_regime.Parked))
    ob.Fed.fob_status

(* The supervisor stays quiet on a clean run: no crash detections, no
   quarantines, no failovers. *)
let test_clean_supervisor_quiet () =
  let ob = run_clean Fed_scenarios.ring ~steps:400 in
  check Alcotest.int "no node events" 0 (List.length ob.Fed.fob_events);
  check Alcotest.int "no detections" 0 (List.length ob.Fed.fob_detections);
  check Alcotest.int "no recoveries" 0 (List.length ob.Fed.fob_recoveries)

(* fed-ring: the local channel (RED -> ORANGE on node 0) and the
   inter-shard relay (ORANGE -> GREEN) both carry the dripped words;
   GREEN sees ORANGE's words + 1. *)
let test_ring_relay () =
  let ob = run_clean Fed_scenarios.ring ~steps:600 in
  let orange_tx = outputs_of ob 1 and green_tx = outputs_of ob 2 in
  check Alcotest.bool "ORANGE emitted" true (List.length orange_tx > 3);
  check Alcotest.bool "GREEN emitted" true (List.length green_tx > 3);
  let expect = List.map (fun w -> w + 1) orange_tx in
  check Alcotest.bool "GREEN = ORANGE + 1, in order" true
    (is_prefix green_tx expect || is_prefix expect green_tx);
  let violet_tx = outputs_of ob 4 in
  check Alcotest.bool "VIOLET relayed BLUE's words" true (List.length violet_tx > 2)

(* -- The federation vs the monolithic ideal --------------------------------- *)

(* The same global configuration, channels uncut, on ONE kernel is the
   monolithic ideal: every per-device output stream of the federation
   must be a prefix-compatible match of the ideal's. *)
let monolithic spec ~steps =
  let t = Sue.build spec.Fed.fs_cfg in
  let m = Sue.machine t in
  let inputs = Sep_core.Scenarios.drip spec.Fed.fs_alphabet in
  let ndev = Sep_hw.Machine.num_devices m in
  let queues = Array.init ndev (fun _ -> Queue.create ()) in
  let flat = ref [] in
  for n = 0 to steps - 1 do
    List.iter (fun (d, w) -> if d < ndev then Queue.add w queues.(d)) (inputs n);
    let input =
      List.concat
        (List.init ndev (fun d ->
             if
               (not (Queue.is_empty queues.(d)))
               && snd (Sep_hw.Machine.device_regs m d) = 0
             then [ (d, Queue.pop queues.(d)) ]
             else []))
    in
    List.iter (fun o -> flat := o :: !flat) (Sue.step t input)
  done;
  let per = Array.make ndev [] in
  List.iter (fun (d, w) -> per.(d) <- w :: per.(d)) (List.rev !flat);
  List.init ndev (fun d -> (d, List.rev per.(d)))

let test_matches_monolithic () =
  List.iter
    (fun spec ->
      let fed = run_clean spec ~steps:600 in
      let ideal = monolithic spec ~steps:600 in
      List.iter
        (fun (d, ideal_words) ->
          let fed_words = outputs_of fed d in
          check Alcotest.bool
            (Printf.sprintf "%s device %d agrees with the ideal" spec.Fed.fs_label d)
            true
            (is_prefix fed_words ideal_words || is_prefix ideal_words fed_words))
        ideal)
    Fed_scenarios.all

(* -- Crash failover --------------------------------------------------------- *)

let crash_plan shard ~at = plan_of [ (at, Fault_plan.Shard_crash { shard }) ]

(* A crashed shard is detected by heartbeat timeout and warm-rebooted
   from checkpoints; afterwards nothing is parked and the audit trail
   records the whole story. *)
let test_crash_failover () =
  let ob = run_plan Fed_scenarios.ring ~steps:600 (crash_plan 1 ~at:120) in
  let kinds = List.map snd ob.Fed.fob_events in
  check Alcotest.bool "crash recorded" true
    (List.exists (function Fed.Node_crashed 1 -> true | _ -> false) kinds);
  check Alcotest.bool "detected by timeout" true
    (List.exists (function Fed.Node_down_detected 1 -> true | _ -> false) kinds);
  check Alcotest.bool "failover ran" true
    (List.exists (function Fed.Node_failover (1, _) -> true | _ -> false) kinds);
  check Alcotest.bool "warm reboot audited" true
    (List.exists (function Sue.Warm_reboot -> true | _ -> false) ob.Fed.fob_recoveries);
  List.iter
    (fun (c, s) ->
      check Alcotest.bool (Colour.name c ^ " recovered") true (s <> Abstract_regime.Parked))
    ob.Fed.fob_status

(* THE fail-operational claim: during a single-shard outage, surviving
   shards' per-colour traces are byte-identical to the fault-free run.
   Node 1 crashes; node 0 (RED, ORANGE) and node 2 (VIOLET, GREY) hold
   devices 1 (ORANGE Tx) and 4 (VIOLET Tx). ORANGE's trace must be
   EQUAL (its stream never touches node 1); VIOLET's must be a prefix
   (its source BLUE rode through the crash) that catches up to equality
   given enough post-failover steps. *)
let test_survivors_byte_identical () =
  let steps = 900 in
  let clean = run_clean Fed_scenarios.ring ~steps in
  let faulty = run_plan Fed_scenarios.ring ~steps (crash_plan 1 ~at:200) in
  check
    Alcotest.(list int)
    "ORANGE's trace byte-identical" (outputs_of clean 1) (outputs_of faulty 1);
  check Alcotest.bool "VIOLET's trace a prefix of the clean run" true
    (is_prefix (outputs_of faulty 4) (outputs_of clean 4));
  check
    Alcotest.(list int)
    "VIOLET caught up after failover" (outputs_of clean 4) (outputs_of faulty 4);
  check
    Alcotest.(list int)
    "GREEN (on the crashed node) lost no words" (outputs_of clean 2) (outputs_of faulty 2)

(* Crashes beyond the node-reboot budget abandon the shard: it stays
   dark, its colours parked, everyone else untouched. *)
let test_crash_budget_abandon () =
  let plan =
    plan_of
      [
        (60, Fault_plan.Shard_crash { shard = 1 });
        (150, Fault_plan.Shard_crash { shard = 1 });
        (250, Fault_plan.Shard_crash { shard = 1 });
      ]
  in
  let ob = run_plan Fed_scenarios.ring ~steps:600 plan in
  check Alcotest.(list int) "node 1 abandoned" [ 1 ] ob.Fed.fob_abandoned_nodes;
  check Alcotest.bool "abandonment audited" true
    (List.exists (function _, Fed.Node_abandoned 1 -> true | _ -> false) ob.Fed.fob_events);
  let status c = List.assoc c ob.Fed.fob_status in
  check Alcotest.bool "GREEN parked" true (status Colour.green = Abstract_regime.Parked);
  check Alcotest.bool "ORANGE still running" true
    (status (Colour.make "ORANGE") <> Abstract_regime.Parked);
  (* The survivors' traces are still byte-identical up to truncation. *)
  let clean = run_clean Fed_scenarios.ring ~steps:600 in
  check
    Alcotest.(list int)
    "ORANGE unperturbed by the abandonment"
    (List.assoc 1 clean.Fed.fob_outputs)
    (outputs_of ob 1)

(* -- Partition tolerance ---------------------------------------------------- *)

(* Partitioning a heartbeat line quarantines the shard (parked at the
   boundary, audited); healing rejoins it; no words are ever lost. *)
let test_partition_quarantine_rejoin () =
  let spec = Fed_scenarios.ring in
  (* wires 0-2 carry channels 1,2,3; wires 3,4,5 are the heartbeat lines
     of nodes 0,1,2 — so node 1's heartbeat line is wire 4 *)
  let plan = plan_of [ (100, Fault_plan.Link_partition { link = 4; window = 40 }) ] in
  let ob = run_plan spec ~steps:700 plan in
  let kinds = List.map snd ob.Fed.fob_events in
  check Alcotest.bool "quarantined" true
    (List.exists (function Fed.Node_quarantined (1, _) -> true | _ -> false) kinds);
  check Alcotest.bool "rejoined" true
    (List.exists (function Fed.Node_rejoined 1 -> true | _ -> false) kinds);
  check Alcotest.bool "never failed over" false
    (List.exists (function Fed.Node_failover _ -> true | _ -> false) kinds);
  (* Quarantine delays, never loses: full-length run converges on the
     clean trace for every colour. *)
  let clean = run_clean spec ~steps:700 in
  List.iter
    (fun (d, words) ->
      check Alcotest.bool
        (Printf.sprintf "device %d prefix-intact across quarantine" d)
        true
        (is_prefix (outputs_of ob d) words || is_prefix words (outputs_of ob d)))
    clean.Fed.fob_outputs

(* Partitioning a DATA line: the reliable link retransmits across the
   heal, so the receiver's words are delayed, never lost — and the
   supervisor needn't even notice. *)
let test_partition_data_wire_no_loss () =
  let plan = plan_of [ (150, Fault_plan.Link_partition { link = 1; window = 30 }) ] in
  let ob = run_plan Fed_scenarios.ring ~steps:800 plan in
  let clean = run_clean Fed_scenarios.ring ~steps:800 in
  check Alcotest.bool "partition recorded" true
    (List.exists (function _, Fed.Link_down 1 -> true | _ -> false) ob.Fed.fob_events);
  check Alcotest.bool "heal recorded" true
    (List.exists (function _, Fed.Link_healed 1 -> true | _ -> false) ob.Fed.fob_events);
  check Alcotest.bool "partition dropped frames" true
    (ob.Fed.fob_stats.Net.ls_partition_drops > 0);
  check
    Alcotest.(list int)
    "VIOLET lost no words" (List.assoc 4 clean.Fed.fob_outputs) (outputs_of ob 4)

(* -- Frame tampering -------------------------------------------------------- *)

(* Forged frames on a data wire fail the end-to-end checksum and are
   rejected at the destination NIC, audited as Frame_rejected; only the
   tampered wire's receiver can be perturbed. *)
let test_tamper_rejected () =
  let plan =
    plan_of
      [
        (200, Fault_plan.Frame_tamper { link = 1 });
        (220, Fault_plan.Frame_tamper { link = 1 });
        (240, Fault_plan.Frame_tamper { link = 1 });
      ]
  in
  let ob = run_plan Fed_scenarios.ring ~steps:700 plan in
  let tampered =
    List.exists
      (function _, Fed.Link_tampered (1, n) -> n > 0 | _ -> false)
      ob.Fed.fob_events
  in
  if tampered then begin
    check Alcotest.bool "rejects counted" true (ob.Fed.fob_frame_rejects > 0);
    check Alcotest.bool "rejection audited" true
      (List.exists (function _, Fed.Frame_rejected _ -> true | _ -> false) ob.Fed.fob_events)
  end;
  (* Every colour but GREEN (wire 1's receiver) keeps its clean trace. *)
  let clean = run_clean Fed_scenarios.ring ~steps:700 in
  List.iter
    (fun d ->
      check Alcotest.bool
        (Printf.sprintf "device %d unperturbed by tampering" d)
        true
        (let a = List.assoc d clean.Fed.fob_outputs and b = outputs_of ob d in
         is_prefix a b || is_prefix b a))
    [ 1; 4 ]

(* -- Node-fault plans ------------------------------------------------------- *)

(* With a node_space the generator draws node-level faults; without one
   the stream is unchanged, draw for draw. *)
let test_node_fault_plans () =
  let spec = Fed_scenarios.ring in
  let nodes = Fed.node_space spec in
  check Alcotest.int "3 shards" 3 nodes.Fault_plan.ns_shards;
  check Alcotest.int "3 data + 3 hb wires" 6 nodes.Fault_plan.ns_links;
  let plans = Fault_plan.generate ~nodes ~seed:7 ~steps:200 ~count:400 spec.Fed.fs_cfg in
  let node_faults =
    List.concat_map
      (fun (p : Fault_plan.t) ->
        List.filter
          (fun (_, f) ->
            match f with
            | Fault_plan.Shard_crash _ | Fault_plan.Link_partition _ | Fault_plan.Frame_tamper _
              -> true
            | _ -> false)
          p.Fault_plan.faults)
      plans
  in
  check Alcotest.bool "node faults drawn" true (List.length node_faults > 20);
  let without = Fault_plan.generate ~seed:7 ~steps:200 ~count:400 spec.Fed.fs_cfg in
  check Alcotest.bool "no node faults without a node_space" true
    (List.for_all
       (fun (p : Fault_plan.t) ->
         List.for_all
           (fun (_, f) ->
             match f with
             | Fault_plan.Shard_crash _ | Fault_plan.Link_partition _
             | Fault_plan.Frame_tamper _ -> false
             | _ -> true)
           p.Fault_plan.faults)
       without);
  (* multi-fault plans thread the space through too *)
  let multi =
    Fault_plan.generate_multi ~nodes ~seed:7 ~steps:200 ~count:100 ~faults_per_plan:3
      spec.Fed.fs_cfg
  in
  check Alcotest.bool "multi plans draw node faults" true
    (List.exists
       (fun (p : Fault_plan.t) ->
         List.exists
           (fun (_, f) -> match f with Fault_plan.Shard_crash _ -> true | _ -> false)
           p.Fault_plan.faults)
       multi)

(* -- The chaos campaign ----------------------------------------------------- *)

module Fed_campaign = Sep_fed.Fed_campaign
module Campaign = Sep_robust.Campaign

(* The headline: across directed and seeded node faults, with the online
   monitor attached to every shard, nothing ever violates separation —
   and the monitor agrees. *)
let test_chaos_holds () =
  List.iter
    (fun spec ->
      let r = Fed_campaign.run ~seed:42 ~steps:300 ~count:10 spec in
      let m, d, rc, v = Fed_campaign.totals r in
      check Alcotest.int (spec.Fed.fs_label ^ ": no violations") 0 v;
      check Alcotest.bool (spec.Fed.fs_label ^ ": monitor clean") true
        (Fed_campaign.monitor_clean r);
      check Alcotest.bool (spec.Fed.fs_label ^ ": campaign non-trivial") true
        (m + d + rc > 10))
    Fed_scenarios.all

(* Regression pin for the connected-channel weakening of condition 2: a
   shard hosts *uncut* intra-shard channels, so every send lands in (and
   every receive drains) a ring another colour's abstraction reads. With
   the monitor deep-checking every single step, nothing but the
   sanctioned-interference carve-out keeps a perfectly clean federation
   run green — before it, this flagged "changes ORANGE's view" within
   ten steps. *)
let test_monitor_clean_every_step () =
  List.iter
    (fun spec ->
      let policy = { Fed.default_policy with Fed.fp_monitor_period = 1 } in
      let t = Fed.build ~policy ~monitor:true spec in
      Fed.run t ~steps:100;
      let ob = Fed.finish t in
      check Alcotest.bool
        (spec.Fed.fs_label ^ ": clean run clean at period 1")
        true
        (ob.Fed.fob_first_violation = None);
      check Alcotest.bool
        (spec.Fed.fs_label ^ ": the watch really deep-checked")
        true
        (ob.Fed.fob_deep_checks > 50))
    Fed_scenarios.all

(* Directed crash cases end recovered: the failover revived the shard. *)
let test_chaos_crash_recovers () =
  let r = Fed_campaign.run ~monitor:false ~seed:7 ~steps:400 ~count:0 Fed_scenarios.ring in
  List.iter
    (fun (c : Fed_campaign.case) ->
      match c.Fed_campaign.fc_plan.Fault_plan.faults with
      | [ (_, Fault_plan.Shard_crash _) ] ->
        check Alcotest.bool
          (c.Fed_campaign.fc_plan.Fault_plan.label ^ " recovered")
          true
          (c.Fed_campaign.fc_outcome = Campaign.Recovered_safe)
      | _ -> ())
    r.Fed_campaign.fr_cases

(* Determinism across job counts: the chaos report is identical JSONL
   whether replayed on one domain or two. *)
let test_chaos_deterministic () =
  let run jobs =
    Fed_campaign.report_to_jsonl
      (Fed_campaign.run ~jobs ~monitor:false ~seed:123 ~steps:200 ~count:6 Fed_scenarios.pair)
  in
  check Alcotest.string "jsonl identical -j1 vs -j2" (run 1) (run 2)

(* The fed-pair report at the CLI's smoke size, byte for byte: any change
   to classification, tally or JSONL framing moves this digest. Update
   the pin only for an intended change to the report itself. *)
let test_chaos_digest () =
  check Alcotest.string "fed-pair smoke jsonl" "2c835e5957e26b210de233d91ff5c01b"
    (Digest.to_hex
       (Digest.string
          (Fed_campaign.report_to_jsonl
             (Fed_campaign.run ~seed:42 ~steps:300 ~count:8 Fed_scenarios.pair))))

let () =
  Alcotest.run "fed"
    [
      ( "federation",
        [
          Alcotest.test_case "pair delivers across the link" `Quick test_pair_delivers;
          Alcotest.test_case "clean run: supervisor quiet" `Quick test_clean_supervisor_quiet;
          Alcotest.test_case "ring relays locally and across" `Quick test_ring_relay;
          Alcotest.test_case "matches the monolithic ideal" `Quick test_matches_monolithic;
        ] );
      ( "failover",
        [
          Alcotest.test_case "crash detected and failed over" `Quick test_crash_failover;
          Alcotest.test_case "survivors byte-identical" `Quick test_survivors_byte_identical;
          Alcotest.test_case "reboot budget abandons" `Quick test_crash_budget_abandon;
        ] );
      ( "partition",
        [
          Alcotest.test_case "quarantine and rejoin" `Quick test_partition_quarantine_rejoin;
          Alcotest.test_case "data partition loses nothing" `Quick
            test_partition_data_wire_no_loss;
        ] );
      ( "tamper",
        [ Alcotest.test_case "forged frames rejected" `Quick test_tamper_rejected ] );
      ( "plans",
        [ Alcotest.test_case "node-fault plans" `Quick test_node_fault_plans ] );
      ( "chaos",
        [
          Alcotest.test_case "campaign holds, monitor clean" `Quick test_chaos_holds;
          Alcotest.test_case "monitor clean at every step" `Quick
            test_monitor_clean_every_step;
          Alcotest.test_case "directed crashes recover" `Quick test_chaos_crash_recovers;
          Alcotest.test_case "deterministic across jobs" `Quick test_chaos_deterministic;
          Alcotest.test_case "jsonl digest pinned" `Quick test_chaos_digest;
        ] );
    ]
