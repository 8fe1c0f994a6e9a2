(* Tests for the robustness layer: fault plans, the injection campaign,
   and the kernel's fail-safe hardening (checksummed save areas, guard
   words, watchdog, kernel panic). *)

module Colour = Sep_model.Colour
module Machine = Sep_hw.Machine
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Scenarios = Sep_core.Scenarios
module Ktrace = Sep_core.Ktrace
module Abstract_regime = Sep_core.Abstract_regime
module Fault_plan = Sep_robust.Fault_plan
module Campaign = Sep_robust.Campaign
module Json = Sep_util.Json

let check = Alcotest.check

let pipeline_cfg = Scenarios.pipeline.Scenarios.cfg

(* -- Fault plans ----------------------------------------------------------- *)

let test_plans_deterministic () =
  let gen () =
    List.map
      (fun (p : Fault_plan.t) -> Json.to_string (Fault_plan.to_json p))
      (Fault_plan.generate ~seed:7 ~steps:50 ~count:20 pipeline_cfg)
  in
  check (Alcotest.list Alcotest.string) "same seed, same plans" (gen ()) (gen ());
  let other =
    List.map
      (fun (p : Fault_plan.t) -> Json.to_string (Fault_plan.to_json p))
      (Fault_plan.generate ~seed:8 ~steps:50 ~count:20 pipeline_cfg)
  in
  Alcotest.(check bool) "different seed differs" false (gen () = other)

let test_plan_targets () =
  let target f = Fault_plan.target pipeline_cfg f in
  let colour = Alcotest.testable Colour.pp Colour.equal in
  check (Alcotest.option colour) "mem flip targets its partition owner" (Some Colour.red)
    (target (Fault_plan.Mem_flip { colour = Colour.red; offset = 3; bit = 1 }));
  check (Alcotest.option colour) "guard smash targets nobody" None
    (target (Fault_plan.Guard_smash { index = 0 }));
  check (Alcotest.option colour) "send end is the sender's domain" (Some Colour.red)
    (target (Fault_plan.Chan_flip { chan = 0; which = Fault_plan.Send_end; word = 0; bit = 0 }));
  check (Alcotest.option colour) "recv end is the receiver's domain" (Some Colour.black)
    (target (Fault_plan.Chan_flip { chan = 0; which = Fault_plan.Recv_end; word = 0; bit = 0 }));
  (* device 2 is BLACK's Rx in the pipeline layout *)
  check (Alcotest.option colour) "device faults target the device owner" (Some Colour.black)
    (target (Fault_plan.Stuck_device { device = 2 }))

let test_plans_strike_inside_run () =
  List.iter
    (fun (p : Fault_plan.t) ->
      List.iter
        (fun (at, _) ->
          if at < 1 || at >= 50 then Alcotest.failf "plan %s strikes at %d" p.Fault_plan.label at)
        p.Fault_plan.faults)
    (Fault_plan.generate ~seed:3 ~steps:50 ~count:100 pipeline_cfg)

let test_multi_fault_plans () =
  let plans = Fault_plan.generate_multi ~seed:4 ~steps:50 ~count:30 ~faults_per_plan:3 pipeline_cfg in
  check Alcotest.int "requested count" 30 (List.length plans);
  List.iter
    (fun (p : Fault_plan.t) ->
      check Alcotest.int (p.Fault_plan.label ^ " carries three faults") 3
        (List.length p.Fault_plan.faults);
      ignore
        (List.fold_left
           (fun prev (at, _) ->
             if at < prev then Alcotest.failf "plan %s strikes out of order" p.Fault_plan.label;
             if at < 1 || at >= 50 then Alcotest.failf "plan %s strikes at %d" p.Fault_plan.label at;
             at)
           0 p.Fault_plan.faults))
    plans;
  let render ps = List.map (fun p -> Json.to_string (Fault_plan.to_json p)) ps in
  check
    (Alcotest.list Alcotest.string)
    "deterministic" (render plans)
    (render (Fault_plan.generate_multi ~seed:4 ~steps:50 ~count:30 ~faults_per_plan:3 pipeline_cfg))

(* -- Kernel hardening ------------------------------------------------------ *)

let status =
  Alcotest.testable
    (fun ppf s ->
      Fmt.string ppf
        (match (s : Abstract_regime.status) with
        | Abstract_regime.Running -> "running"
        | Abstract_regime.Waiting -> "waiting"
        | Abstract_regime.Parked -> "parked"))
    ( = )

(* Corrupting a parked-out regime's save area parks that regime at the
   next switch attempt — with an audit event in the trace and a bumped
   fault counter — while the rest of the system keeps running. *)
let test_save_corruption_parks_and_audits () =
  let t = Sue.build pipeline_cfg in
  let m = Sue.machine t in
  (* BLACK is off-processor at build time; smash its saved R2 *)
  let base = Sue.save_area_base t Colour.black in
  Machine.write_phys m (base + 2) 0xbeef;
  let events = ref [] in
  for _ = 1 to 40 do
    events := !events @ Ktrace.step t []
  done;
  let audited =
    List.exists
      (function Ktrace.Save_corrupt c -> Colour.equal c Colour.black | _ -> false)
      !events
  in
  Alcotest.(check bool) "Save_corrupt audit event traced" true audited;
  check Alcotest.int "fault park counted" 1 (Sue.kstats t).Sue.ks_fault_parks;
  check status "black is parked" Abstract_regime.Parked (Sue.regime_status t Colour.black);
  (* the survivor still runs: red keeps retiring instructions afterwards *)
  let red_before = List.assoc Colour.red (Sue.kstats t).Sue.ks_instrs in
  for n = 1 to 20 do
    ignore (Sue.step t (if n mod 4 = 0 then [ (0, n) ] else []))
  done;
  let red_after = List.assoc Colour.red (Sue.kstats t).Sue.ks_instrs in
  Alcotest.(check bool) "red still makes progress" true (red_after > red_before)

let test_guard_sweep_repairs_and_audits () =
  let t = Sue.build pipeline_cfg in
  let m = Sue.machine t in
  (match Sue.guard_addrs t with
  | g :: _ -> Machine.write_phys m g 0x1234
  | [] -> Alcotest.fail "no guards");
  check Alcotest.int "one breach found" 1 (Sue.guard_sweep t);
  check Alcotest.int "breach counted" 1 (Sue.kstats t).Sue.ks_guard_breaches;
  let audited =
    List.exists (function Sue.Guard_breach _ -> true | _ -> false) (Sue.drain_faults t)
  in
  Alcotest.(check bool) "breach in the audit log" true audited;
  check Alcotest.int "guard repaired: second sweep clean" 0 (Sue.guard_sweep t)

(* The watchdog keeps never-yielding regimes live without a quantum, and
   its fires are audited. *)
let test_watchdog_preempts_greedy () =
  let p = Scenarios.preemptive in
  let cfg = { p.Scenarios.cfg with Config.quantum = None } in
  let t = Sue.build ~watchdog:4 cfg in
  for _ = 1 to 100 do
    ignore (Sue.step t [])
  done;
  let ks = Sue.kstats t in
  Alcotest.(check bool) "watchdog fired" true (ks.Sue.ks_watchdog_fires >= 2);
  List.iter
    (fun (c, n) ->
      if n <= 0 then Alcotest.failf "%a starved despite the watchdog" Colour.pp c)
    ks.Sue.ks_instrs

let test_watchdog_validation () =
  Alcotest.check_raises "watchdog and quantum are exclusive"
    (Invalid_argument "Sue.build: watchdog and preemption quantum are exclusive") (fun () ->
      let p = Scenarios.preemptive in
      ignore (Sue.build ~watchdog:4 p.Scenarios.cfg));
  Alcotest.check_raises "watchdog must be positive"
    (Invalid_argument "Sue.build: watchdog must be positive") (fun () ->
      let p = Scenarios.preemptive in
      ignore (Sue.build ~watchdog:0 { p.Scenarios.cfg with Config.quantum = None }))

(* A fault inside the kernel itself halts to a defined safe state: every
   regime parked, the panic audited, nothing raises. *)
let test_kernel_panic_is_failsafe () =
  let t = Sue.build ~impl:Sue.Assembly pipeline_cfg in
  let m = Sue.machine t in
  let code_base, code_len = Sue.kernel_code_region t in
  Alcotest.(check bool) "assembly kernel has code" true (code_len > 0);
  for a = code_base to code_base + code_len - 1 do
    Machine.write_phys m a 0xffff
  done;
  let events = ref [] in
  for _ = 1 to 30 do
    events := !events @ Ktrace.step t []
  done;
  Alcotest.(check bool) "panic counted" true ((Sue.kstats t).Sue.ks_panics >= 1);
  let audited =
    List.exists (function Ktrace.Kernel_panicked _ -> true | _ -> false) !events
  in
  Alcotest.(check bool) "panic audit event traced" true audited;
  List.iter
    (fun c -> check status (Colour.name c ^ " parked") Abstract_regime.Parked (Sue.regime_status t c))
    (Config.colours pipeline_cfg)

(* -- The campaign ---------------------------------------------------------- *)

let smoke = lazy (Campaign.run ~seed:42 ~steps:60 ~count:12 ())

let test_campaign_holds () =
  let report = Lazy.force smoke in
  let masked, detected, recovered, violating = Campaign.totals report in
  check Alcotest.int "every fault classified" (List.length Campaign.subjects * 12)
    (masked + detected + recovered + violating);
  check Alcotest.int "zero separation violations" 0 violating;
  check Alcotest.int "no recoveries without a supervisor" 0 recovered;
  Alcotest.(check bool) "containment holds" true (Campaign.holds report);
  Alcotest.(check bool) "at least one detected-safe outcome" true (detected >= 1)

(* The acceptance criterion: some detected-safe case exercised the
   park-and-audit path, visible in its recorded detections. *)
let test_campaign_exercises_park_path () =
  let report = Lazy.force smoke in
  let parked =
    List.exists
      (fun (sr : Campaign.scenario_report) ->
        List.exists
          (fun (c : Campaign.case) ->
            c.Campaign.outcome = Campaign.Detected_safe
            && List.exists
                 (function Sue.Save_area_corrupt _ -> true | _ -> false)
                 c.Campaign.detections)
          sr.Campaign.cases)
      report.Campaign.rp_scenarios
  in
  Alcotest.(check bool) "a detected-safe case parked and audited" true parked

let test_campaign_jsonl_parses () =
  let report = Lazy.force smoke in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Campaign.report_to_jsonl report))
  in
  check Alcotest.int "one line per case plus the summary"
    ((List.length Campaign.subjects * 12) + 1)
    (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj fields) ->
        if not (List.mem_assoc "kind" fields) then Alcotest.failf "line without kind: %s" line
      | Ok _ -> Alcotest.failf "non-object line: %s" line
      | Error e -> Alcotest.failf "unparseable line %s: %s" line e)
    lines

let test_campaign_deterministic () =
  let a = Campaign.report_to_jsonl (Campaign.run ~seed:9 ~steps:40 ~count:6 ()) in
  let b = Campaign.report_to_jsonl (Campaign.run ~seed:9 ~steps:40 ~count:6 ()) in
  check Alcotest.string "same seed, same report" a b

let test_distributed_baseline () =
  let d = Campaign.run_distributed ~seed:42 ~steps:40 ~count:20 in
  Alcotest.(check bool) "tampering had an effect" true (d.Campaign.dr_affected > 0);
  Alcotest.(check bool) "unconnected boxes untouched" true d.Campaign.dr_contained

(* -- The recovery campaign -------------------------------------------------- *)

let recovery_smoke = lazy (Campaign.run_recovery ~seed:42 ~steps:60 ~count:12 ())

let test_recovery_campaign_holds () =
  let report = Lazy.force recovery_smoke in
  let masked, detected, recovered, violating = Campaign.totals report in
  (* 12 single-fault plans plus 6 triple-fault plans per scenario *)
  check Alcotest.int "every fault classified" (List.length Campaign.subjects * 18)
    (masked + detected + recovered + violating);
  check Alcotest.int "zero separation violations" 0 violating;
  Alcotest.(check bool) "containment holds" true (Campaign.holds report);
  Alcotest.(check bool) "faults were recovered" true (recovered > 0);
  List.iter
    (fun (sr : Campaign.scenario_report) ->
      let r =
        List.length (List.filter (fun c -> c.Campaign.outcome = Campaign.Recovered_safe) sr.Campaign.cases)
      and v =
        List.length (List.filter (fun c -> c.Campaign.outcome = Campaign.Violating) sr.Campaign.cases)
      in
      check Alcotest.int (sr.Campaign.label ^ " has no violation") 0 v;
      Alcotest.(check bool) (sr.Campaign.label ^ " recovered something") true (r > 0))
    report.Campaign.rp_scenarios

let test_recovery_cases_record_actions () =
  let report = Lazy.force recovery_smoke in
  List.iter
    (fun (sr : Campaign.scenario_report) ->
      List.iter
        (fun (c : Campaign.case) ->
          if c.Campaign.outcome = Campaign.Recovered_safe && c.Campaign.recoveries = [] then
            Alcotest.failf "recovered-safe case without a recorded recovery in %s" sr.Campaign.label)
        sr.Campaign.cases)
    report.Campaign.rp_scenarios;
  let restarted =
    List.exists
      (fun (sr : Campaign.scenario_report) ->
        List.exists
          (fun (c : Campaign.case) ->
            List.exists
              (function Sue.Regime_restart _ -> true | _ -> false)
              c.Campaign.recoveries)
          sr.Campaign.cases)
      report.Campaign.rp_scenarios
  in
  Alcotest.(check bool) "some case recorded a regime restart" true restarted

let test_recovery_deterministic () =
  let run () = Campaign.report_to_jsonl (Campaign.run_recovery ~seed:9 ~steps:40 ~count:6 ()) in
  check Alcotest.string "same seed, same recovery report" (run ()) (run ())

(* -- JSONL digests ------------------------------------------------------------ *)

(* The smoke-size reports, byte for byte: any change to a campaign's
   classification, tally or JSONL framing moves these digests. Update a
   pin only for an intended change to the report itself. *)
let digest jsonl = Digest.to_hex (Digest.string jsonl)

let test_campaign_digest () =
  check Alcotest.string "campaign smoke jsonl" "8956c63d0453ecf9a72d05f0c149995e"
    (digest (Campaign.report_to_jsonl (Lazy.force smoke)))

let test_recovery_digest () =
  check Alcotest.string "recovery smoke jsonl" "c07618be07a7d11e990e772c76ba6a5b"
    (digest (Campaign.report_to_jsonl (Lazy.force recovery_smoke)))

(* -- The outcome lattice ------------------------------------------------------ *)

let outcome = Alcotest.testable Campaign.pp_outcome ( = )

let test_outcome_precedence () =
  List.iter
    (fun (violating, recovered, noticed, expected) ->
      check outcome
        (Fmt.str "violating %b, recovered %b, noticed %b" violating recovered noticed)
        expected
        (Campaign.outcome_of ~violating ~recovered ~noticed))
    Campaign.
      [
        (true, true, true, Violating);
        (true, false, false, Violating);
        (false, true, true, Recovered_safe);
        (false, true, false, Recovered_safe);
        (false, false, true, Detected_safe);
        (false, false, false, Masked);
      ]

let test_tally () =
  let count outcomes =
    let m, d, r, v = Campaign.tally snd outcomes in
    [ m; d; r; v ]
  in
  check Alcotest.(list int) "empty" [ 0; 0; 0; 0 ] (count []);
  check Alcotest.(list int) "one count per outcome" [ 3; 1; 2; 1 ]
    (count
       Campaign.
         [
           (0, Masked); (1, Violating); (2, Masked); (3, Recovered_safe); (4, Detected_safe);
           (5, Masked); (6, Recovered_safe);
         ])

(* Device 0 belongs to RED, device 1 to BLACK. *)
let diverged faulty c =
  Campaign.colour_diverged
    ~owner:(fun d -> if d = 0 then Colour.red else Colour.black)
    [ (0, [ 1; 2; 3 ]); (1, [ 7 ]) ]
    faulty c

let test_prefix_not_divergence () =
  List.iter
    (fun words ->
      Alcotest.(check bool)
        (Fmt.str "RED emitted %a" Fmt.(Dump.list int) words)
        false
        (diverged [ (0, words); (1, [ 7 ]) ] Colour.red))
    [ []; [ 1 ]; [ 1; 2; 3 ]; [ 1; 2; 3; 4; 5 ] ]

let test_differing_word_diverges () =
  Alcotest.(check bool) "a changed word" true
    (diverged [ (0, [ 1; 9; 3 ]); (1, [ 7 ]) ] Colour.red);
  Alcotest.(check bool) "a shorter trace with a changed word" true
    (diverged [ (0, [ 2 ]); (1, [ 7 ]) ] Colour.red)

let test_other_colour_ignored () =
  let faulty = [ (0, [ 1; 2; 3 ]); (1, [ 8 ]) ] in
  Alcotest.(check bool) "BLACK's device does not count against RED" false
    (diverged faulty Colour.red);
  Alcotest.(check bool) "it counts against BLACK" true (diverged faulty Colour.black)

(* -- The input drip ----------------------------------------------------------- *)

let alphabet = [ []; [ (0, 1) ]; [ (0, 2) ]; [ (1, 3) ] ]

let test_drip_every_tenth_step () =
  let drip = Scenarios.drip alphabet in
  List.iter
    (fun step ->
      Alcotest.(check bool) (Fmt.str "step %d" step) (step mod 10 = 0) (drip step <> []))
    (List.init 45 Fun.id)

let test_drip_skips_entry_zero () =
  check
    Alcotest.(list (list (pair int int)))
    "entries 1, 2, 3, then around again"
    [ [ (0, 1) ]; [ (0, 2) ]; [ (1, 3) ]; [ (0, 1) ]; [ (0, 2) ] ]
    (List.map (Scenarios.drip alphabet) [ 0; 10; 20; 30; 40 ])

let test_drip_one_entry_alphabet () =
  List.iter
    (fun only ->
      let drip = Scenarios.drip [ only ] in
      List.iter
        (fun step -> check Alcotest.(list (pair int int)) (Fmt.str "step %d" step) [] (drip step))
        [ 0; 1; 10; 20 ])
    [ []; [ (0, 1) ] ]

(* -- JSONL round-trips ------------------------------------------------------- *)

let member name fields =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" name

let test_case_jsonl_roundtrip () =
  let report = Lazy.force recovery_smoke in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Campaign.report_to_jsonl report))
  in
  let outcomes = [ "masked"; "detected-safe"; "recovered-safe"; "violating" ] in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "unparseable line %s: %s" line e
      | Ok (Json.Obj fields) -> (
        match member "kind" fields with
        | Json.String "fault-case" ->
          List.iter
            (fun f -> ignore (member f fields))
            [ "scenario"; "seed"; "steps"; "plan"; "target"; "outcome"; "victim_perturbed";
              "detections"; "recoveries"; "watchdog_delta" ];
          let outcome =
            match member "outcome" fields with
            | Json.String s -> s
            | _ -> Alcotest.fail "outcome is not a string"
          in
          if not (List.mem outcome outcomes) then Alcotest.failf "unknown outcome %s" outcome;
          Hashtbl.replace seen outcome ();
          (match (outcome, member "recoveries" fields) with
          | "recovered-safe", Json.List [] ->
            Alcotest.fail "recovered-safe case with empty recoveries"
          | _, Json.List _ -> ()
          | _ -> Alcotest.fail "recoveries is not a list")
        | Json.String "campaign-summary" ->
          let int_field f =
            match member f fields with
            | Json.Int n -> n
            | _ -> Alcotest.failf "summary field %s is not an int" f
          in
          check Alcotest.int "summary cases = sum of classes"
            (int_field "masked" + int_field "detected_safe" + int_field "recovered_safe"
           + int_field "violating")
            (int_field "cases")
        | _ -> Alcotest.failf "unknown kind in %s" line)
      | Ok _ -> Alcotest.failf "non-object line: %s" line)
    lines;
  List.iter
    (fun o ->
      if o <> "violating" && not (Hashtbl.mem seen o) then
        Alcotest.failf "no %s case in the smoke campaign" o)
    outcomes

let test_dist_json_roundtrip () =
  let d = Campaign.run_distributed ~seed:42 ~steps:40 ~count:20 in
  match Json.parse (Json.to_string (Campaign.dist_to_json d)) with
  | Error e -> Alcotest.failf "unparseable distributed baseline: %s" e
  | Ok (Json.Obj fields) ->
    (match member "kind" fields with
    | Json.String "distributed-baseline" -> ()
    | _ -> Alcotest.fail "wrong kind");
    check Alcotest.int "cases survive the round-trip" d.Campaign.dr_cases
      (match member "cases" fields with Json.Int n -> n | _ -> -1);
    check Alcotest.int "affected survives the round-trip" d.Campaign.dr_affected
      (match member "affected" fields with Json.Int n -> n | _ -> -1);
    Alcotest.(check bool) "contained survives the round-trip" d.Campaign.dr_contained
      (match member "contained" fields with Json.Bool b -> b | _ -> false)
  | Ok _ -> Alcotest.fail "distributed baseline is not an object"

let () =
  Alcotest.run "robust"
    [
      ( "fault plans",
        [
          Alcotest.test_case "deterministic" `Quick test_plans_deterministic;
          Alcotest.test_case "targets" `Quick test_plan_targets;
          Alcotest.test_case "strike inside the run" `Quick test_plans_strike_inside_run;
          Alcotest.test_case "multi-fault plans" `Quick test_multi_fault_plans;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "save corruption parks and audits" `Quick
            test_save_corruption_parks_and_audits;
          Alcotest.test_case "guard sweep repairs and audits" `Quick
            test_guard_sweep_repairs_and_audits;
          Alcotest.test_case "watchdog preempts greedy regimes" `Quick test_watchdog_preempts_greedy;
          Alcotest.test_case "watchdog validation" `Quick test_watchdog_validation;
          Alcotest.test_case "kernel panic is fail-safe" `Quick test_kernel_panic_is_failsafe;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "containment holds" `Quick test_campaign_holds;
          Alcotest.test_case "park path exercised" `Quick test_campaign_exercises_park_path;
          Alcotest.test_case "jsonl parses" `Quick test_campaign_jsonl_parses;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "distributed baseline" `Quick test_distributed_baseline;
          Alcotest.test_case "jsonl digest pinned" `Quick test_campaign_digest;
        ] );
      ( "recovery campaign",
        [
          Alcotest.test_case "fail-operational holds" `Quick test_recovery_campaign_holds;
          Alcotest.test_case "cases record recovery actions" `Quick
            test_recovery_cases_record_actions;
          Alcotest.test_case "deterministic" `Quick test_recovery_deterministic;
          Alcotest.test_case "jsonl digest pinned" `Quick test_recovery_digest;
        ] );
      ( "outcome lattice",
        [
          Alcotest.test_case "precedence" `Quick test_outcome_precedence;
          Alcotest.test_case "tally" `Quick test_tally;
          Alcotest.test_case "prefix is not divergence" `Quick test_prefix_not_divergence;
          Alcotest.test_case "differing word diverges" `Quick test_differing_word_diverges;
          Alcotest.test_case "other colour's device ignored" `Quick test_other_colour_ignored;
        ] );
      ( "input drip",
        [
          Alcotest.test_case "every tenth step" `Quick test_drip_every_tenth_step;
          Alcotest.test_case "skips entry 0" `Quick test_drip_skips_entry_zero;
          Alcotest.test_case "one-entry alphabet" `Quick test_drip_one_entry_alphabet;
        ] );
      ( "jsonl round-trips",
        [
          Alcotest.test_case "fault-case and summary schema" `Quick test_case_jsonl_roundtrip;
          Alcotest.test_case "distributed baseline schema" `Quick test_dist_json_roundtrip;
        ] );
    ]
