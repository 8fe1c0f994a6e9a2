(* Tests for the online separability monitor (Sep_core.Monitor): exact
   agreement with the offline checker on clean runs, detection of every
   checked-in corpus mutant with first-violating-step attribution, the
   streaming watch over a live kernel, and the campaign hook. *)

module Scenarios = Sep_core.Scenarios
module Separability = Sep_core.Separability
module Monitor = Sep_core.Monitor
module Sue = Sep_core.Sue
module Trace = Sep_obs.Trace
module Fuzz = Sep_check.Fuzz
module Score = Sep_check.Score
module Campaign = Sep_robust.Campaign
module Fault_plan = Sep_robust.Fault_plan
module Json = Sep_util.Json

let check = Alcotest.check

(* a small deterministic drip schedule from the scenario's alphabet *)
let drip (inst : Scenarios.instance) steps =
  let nonempty = List.filter (fun i -> i <> []) inst.Scenarios.alphabet in
  let n = List.length nonempty in
  List.init steps (fun k ->
      if n > 0 && k mod 3 = 0 then List.nth nonempty (k / 3 mod n) else [])

(* -- agreement with the offline checker on clean scenarios ------------------ *)

let agree label (offline : Separability.report) (online : Fuzz.online) =
  let r = online.Fuzz.on_report in
  check Alcotest.int (label ^ ": states") offline.Separability.states r.Separability.states;
  check Alcotest.int (label ^ ": checks") offline.Separability.checks r.Separability.checks;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    (label ^ ": per-condition counts") offline.Separability.cond_checks
    r.Separability.cond_checks

let test_clean_agreement () =
  List.iter
    (fun (inst : Scenarios.instance) ->
      let label = inst.Scenarios.label in
      let sched = drip inst 12 in
      let offline =
        Fuzz.check_schedule ~seed:42 ~alphabet:inst.Scenarios.alphabet inst.Scenarios.cfg sched
      in
      let online =
        Fuzz.check_schedule_online ~seed:42 ~alphabet:inst.Scenarios.alphabet inst.Scenarios.cfg
          sched
      in
      agree label offline online;
      Alcotest.(check bool) (label ^ ": offline verified") true (Separability.verified offline);
      Alcotest.(check bool)
        (label ^ ": online verified") true
        (Separability.verified online.Fuzz.on_report);
      check (Alcotest.list Alcotest.int) (label ^ ": same failing conditions")
        (Separability.failing_conditions offline)
        (Separability.failing_conditions online.Fuzz.on_report);
      Alcotest.(check bool) (label ^ ": no violation") true (online.Fuzz.on_first_violation = None))
    Scenarios.all

(* -- the checked-in corpus mutants ------------------------------------------ *)

let corpus_dir () =
  (* cwd is the build test directory under [dune runtest], the repo root
     under [dune exec] *)
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_cases () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun file ->
         let path = Filename.concat dir file in
         let ic = open_in path in
         let text = really_input_string ic (in_channel_length ic) in
         close_in ic;
         match Json.parse text with
         | Error m -> Alcotest.failf "%s: bad JSON: %s" file m
         | Ok json -> (
           match Score.corpus_case_of_json json with
           | Error m -> Alcotest.failf "%s: %s" file m
           | Ok case -> (file, case)))

let case_instance (case : Score.corpus_case) =
  match Scenarios.find case.Score.cc_scenario with
  | Some inst -> inst
  | None -> Alcotest.failf "unknown corpus scenario %s" case.Score.cc_scenario

let run_case_online ?settle (case : Score.corpus_case) schedule =
  let inst = case_instance case in
  Fuzz.check_schedule_online ?settle ~bugs:[ case.Score.cc_bug ] ~seed:case.Score.cc_seed
    ~scrambles:case.Score.cc_scrambles ~alphabet:inst.Scenarios.alphabet inst.Scenarios.cfg
    schedule

let settle_default = 24

let test_corpus_agreement_and_detection () =
  let cases = corpus_cases () in
  check Alcotest.int "one corpus case per seeded bug" (List.length Sue.all_bugs)
    (List.length cases);
  List.iter
    (fun (file, case) ->
      let inst = case_instance case in
      let offline =
        Fuzz.check_schedule ~bugs:[ case.Score.cc_bug ] ~seed:case.Score.cc_seed
          ~scrambles:case.Score.cc_scrambles ~alphabet:inst.Scenarios.alphabet inst.Scenarios.cfg
          case.Score.cc_schedule
      in
      let online = run_case_online case case.Score.cc_schedule in
      (* on violating runs only the state totals are comparable: past a
         failure the offline checker and the monitor count the remaining
         checks differently, and both cap recorded failures at
         [max_failures] in different fill orders *)
      check Alcotest.int (file ^ ": states") offline.Separability.states
        online.Fuzz.on_report.Separability.states;
      Alcotest.(check bool) (file ^ ": offline flags the mutant") false
        (Separability.verified offline);
      match online.Fuzz.on_first_violation with
      | None -> Alcotest.failf "%s: online monitor missed the mutant" file
      | Some (step, f) ->
        Alcotest.(check bool)
          (file ^ ": step attributed within the run") true
          (step >= 0 && step <= List.length case.Score.cc_schedule + settle_default);
        Alcotest.(check bool)
          (file ^ ": condition in range") true
          (f.Separability.condition >= 1 && f.Separability.condition <= 6))
    cases

(* The attributed step is minimal: replaying only the steps before it
   (same seed, hence the same scrambled Phi-partners) stays clean. *)
let test_corpus_first_step_minimal () =
  List.iter
    (fun (file, case) ->
      let online = run_case_online case case.Score.cc_schedule in
      match online.Fuzz.on_first_violation with
      | None -> Alcotest.failf "%s: online monitor missed the mutant" file
      | Some (0, _) -> () (* the initial state sample already violates *)
      | Some (step, _) ->
        let extended = case.Score.cc_schedule @ List.init settle_default (fun _ -> []) in
        let prefix = List.filteri (fun i _ -> i < step - 1) extended in
        let clean = run_case_online ~settle:0 case prefix in
        Alcotest.(check bool)
          (file ^ ": prefix before the first violation is clean") true
          (clean.Fuzz.on_first_violation = None))
    (corpus_cases ())

(* -- the flight-recorder hook ----------------------------------------------- *)

let test_violation_dumps_trace () =
  Trace.set_capacity 512;
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
  @@ fun () ->
  match corpus_cases () with
  | [] -> Alcotest.fail "corpus is empty"
  | (_, case) :: _ -> (
    ignore (run_case_online case case.Score.cc_schedule);
    match Trace.last_dump () with
    | None -> Alcotest.fail "first violation must flush the flight recorder"
    | Some (reason, events) ->
      Alcotest.(check bool) "dump reason names the violation" true
        (String.length reason >= 13 && String.sub reason 0 13 = "separability ");
      Alcotest.(check bool) "dump carries the preceding events" true (events <> []);
      Alcotest.(check bool) "the violation instant is recorded" true
        (List.exists (fun e -> e.Trace.cat = "monitor" && e.Trace.name = "violation") events))

(* -- watching a live kernel -------------------------------------------------- *)

let test_watch_clean () =
  let inst = Scenarios.pipeline in
  let t = Sue.build inst.Scenarios.cfg in
  let w = Monitor.watch ~period:8 ~inputs:inst.Scenarios.alphabet t in
  List.iter
    (fun input ->
      ignore (Sue.step t input);
      Monitor.observe w)
    (drip inst 120);
  check Alcotest.int "steps observed" 120 (Monitor.watch_steps w);
  Alcotest.(check bool) "periodic deep checks ran" true (Monitor.deep_checks w >= 120 / 8);
  Alcotest.(check bool) "clean run, no violation" true (Monitor.watch_first_violation w = None);
  Alcotest.(check bool) "watch report verified" true
    (Separability.verified (Monitor.watch_report w))

(* The watch sees only the states the kernel actually reaches (no
   scrambled Phi-partners), so it catches the bugs whose corruption
   lands in the realized state sample — deterministically, at a pinned
   step. Bugs that need scrambled partners (e.g. the output leak) are
   the [feed] path's job, covered by the corpus tests above. *)
let test_watch_detects_bugs () =
  List.iter
    (fun (bug, condition, at_step) ->
      let inst = Scenarios.pipeline in
      let t = Sue.build ~bugs:[ bug ] inst.Scenarios.cfg in
      let w = Monitor.watch ~period:1 ~inputs:inst.Scenarios.alphabet t in
      List.iter
        (fun input ->
          ignore (Sue.step t input);
          Monitor.observe w)
        (drip inst 120);
      let label = Fmt.str "%a" Sue.pp_bug bug in
      match Monitor.watch_first_violation w with
      | None -> Alcotest.failf "watch missed %s" label
      | Some (step, f) ->
        check Alcotest.int (label ^ ": condition") condition f.Separability.condition;
        check Alcotest.int (label ^ ": first violating step") at_step step)
    [
      (Sue.Forget_register_save, 1, 13);
      (Sue.Partition_hole, 2, 13);
      (Sue.Misroute_device_input, 4, 0);
      (Sue.Uncut_channel, 1, 22);
      (Sue.Input_crosstalk, 3, 13);
    ]

(* Every watch report, pinned: each scenario clean and under each seeded
   bug, deep-checked at every step of a drip schedule. The digest
   covers the state and check totals, the per-condition counts and every
   rendered failure, plus the first violating step, so a deep check that
   builds a post-INPUT state or an abstraction from the wrong state moves
   it. Update a pin only for an intended change to what the monitor
   checks or reports. *)
let watch_digest (inst : Scenarios.instance) bugs =
  let t = Sue.build ~bugs inst.Scenarios.cfg in
  let w = Monitor.watch ~period:1 ~inputs:inst.Scenarios.alphabet t in
  List.iter
    (fun input ->
      ignore (Sue.step t input);
      Monitor.observe w)
    (drip inst 180);
  let first =
    match Monitor.watch_first_violation w with
    | Some (step, f) -> Printf.sprintf "%d:%d" step f.Separability.condition
    | None -> "-"
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%s"
          (Json.to_string (Separability.report_to_json (Monitor.watch_report w)))
          (Monitor.deep_checks w) first))

let test_watch_reports_pinned () =
  let pins =
    [
      ("pipeline/clean", "9b4a8172b21989da13257121474b28b8");
      ("pipeline/forget-register-save", "194fb94997e9a5a3bec5dacabb6df910");
      ("pipeline/partition-hole", "f097e02d51167060ba648ebe1e355182");
      ("pipeline/misroute-interrupt", "9b4a8172b21989da13257121474b28b8");
      ("pipeline/misroute-device-input", "35dc3539cefa38c3ae2e445ba5352b38");
      ("pipeline/output-leak", "9b4a8172b21989da13257121474b28b8");
      ("pipeline/schedule-on-foreign-state", "90448f4797c30eadd2bcd32275767599");
      ("pipeline/uncut-channel", "6ed07d4b1c00f6e6276993d9dba6777f");
      ("pipeline/input-crosstalk", "727878303f45f7ccdb9bedb25c2c68f7");
      ("interrupt/clean", "fecdbfce80990ce8ab682c7b3f5c11d0");
      ("interrupt/forget-register-save", "fecdbfce80990ce8ab682c7b3f5c11d0");
      ("interrupt/partition-hole", "ed651cb0267106e418955033f446bd56");
      ("interrupt/misroute-interrupt", "662171c32ce22530bdd145c804d09435");
      ("interrupt/misroute-device-input", "d6c8e48e3b5c93ebbe86225ca5c7879d");
      ("interrupt/output-leak", "fecdbfce80990ce8ab682c7b3f5c11d0");
      ("interrupt/schedule-on-foreign-state", "c614d7a572fa695cfa18b0df1f04f9c5");
      ("interrupt/uncut-channel", "fecdbfce80990ce8ab682c7b3f5c11d0");
      ("interrupt/input-crosstalk", "087a724a678bdfe72c97f4eb27cee64c");
      ("snfe-micro/clean", "a0cc8dab52b0e8a56bcf1c030ff83a39");
      ("snfe-micro/forget-register-save", "6309e6342826e341199fe5570181d3bf");
      ("snfe-micro/partition-hole", "cd5d33e4e2434c72ffbb614b3022af66");
      ("snfe-micro/misroute-interrupt", "a0cc8dab52b0e8a56bcf1c030ff83a39");
      ("snfe-micro/misroute-device-input", "81f5d58af987629757fab51095e61fa7");
      ("snfe-micro/output-leak", "a0cc8dab52b0e8a56bcf1c030ff83a39");
      ("snfe-micro/schedule-on-foreign-state", "dea0c073c05ac46540386d6ea2cbb785");
      ("snfe-micro/uncut-channel", "3dbcc8287aa0a54c69ee10a93284f6e0");
      ("snfe-micro/input-crosstalk", "4b9d02d24b24538abf28b1691fb573e9");
      ("preemptive/clean", "c108231bf57784973c04fddb311f3c97");
      ("preemptive/forget-register-save", "01cc5834e8aa21285a981fd51e13b23a");
      ("preemptive/partition-hole", "25ab44a84f6ff5c6d549fb62f279be5e");
      ("preemptive/misroute-interrupt", "c108231bf57784973c04fddb311f3c97");
      ("preemptive/misroute-device-input", "c108231bf57784973c04fddb311f3c97");
      ("preemptive/output-leak", "c108231bf57784973c04fddb311f3c97");
      ("preemptive/schedule-on-foreign-state", "c108231bf57784973c04fddb311f3c97");
      ("preemptive/uncut-channel", "c108231bf57784973c04fddb311f3c97");
      ("preemptive/input-crosstalk", "c108231bf57784973c04fddb311f3c97");
    ]
  in
  let got =
    List.concat_map
      (fun (inst : Scenarios.instance) ->
        List.map
          (fun bugs ->
            let label =
              match bugs with
              | [ bug ] -> Fmt.str "%s/%a" inst.Scenarios.label Sue.pp_bug bug
              | _ -> inst.Scenarios.label ^ "/clean"
            in
            (label, watch_digest inst bugs))
          ([] :: List.map (fun b -> [ b ]) Sue.all_bugs))
      Scenarios.all
  in
  check Alcotest.(list (pair string string)) "watch report digests" pins got

(* A deep check runs INPUT and the next operation on snapshots of the
   watched kernel. Strike a guard smash the kernel has not swept yet, just
   before a deep check whose snapshots switch regimes: the snapshots sweep
   the guard, audit the breach and take a SWAP-boundary checkpoint, and
   the watched kernel must see none of it. Its twin, built and driven
   alike but never watched, is the reference: the two must agree on the
   kernel counters, on the audit log, and on what a warm reboot restores
   from their checkpoints. *)
let test_watch_leaves_kernel_alone () =
  let inst = Scenarios.pipeline in
  let live = Sue.build inst.Scenarios.cfg and twin = Sue.build inst.Scenarios.cfg in
  let same what =
    Alcotest.(check bool) (what ^ ": kstats") true (Sue.kstats live = Sue.kstats twin);
    check Alcotest.int (what ^ ": audit count") (Sue.audit_count twin) (Sue.audit_count live)
  in
  let swap_next t =
    let name = Sue.nextop_name t in
    String.length name > 5 && String.sub name (String.length name - 5) 5 = ":0200"
  in
  (* advance both, a few steps in, to a state whose next operation is a SWAP *)
  let rec advance k = function
    | [] -> Alcotest.fail "no SWAP ahead"
    | input :: rest ->
      if k < 4 || not (swap_next live) then begin
        ignore (Sue.step live input);
        ignore (Sue.step twin input);
        advance (k + 1) rest
      end
      else rest
  in
  let rest = advance 0 (drip inst 120) in
  let smash = Fault_plan.Guard_smash { index = 0 } in
  Campaign.strike live smash;
  Campaign.strike twin smash;
  (* the hypothetical SWAP finds the breach *)
  let probe = Sue.detached_copies live () in
  Sue.exec_op probe;
  check Alcotest.int "a snapshot's SWAP audits the breach" (Sue.audit_count live + 1) (Sue.audit_count probe);
  same "after a detached SWAP";
  (* attaching checks the current state at once *)
  let w = Monitor.watch ~period:1 ~inputs:inst.Scenarios.alphabet live in
  same "after the deep check";
  Alcotest.(check bool) "nothing audited on the live kernel" true (Sue.drain_faults live = []);
  ignore (Sue.drain_faults twin);
  List.iter
    (fun input ->
      ignore (Sue.step live input);
      Monitor.observe w;
      ignore (Sue.step twin input))
    rest;
  Alcotest.(check bool) "deep checks ran" true (Monitor.deep_checks w > List.length rest);
  same "after the run";
  Alcotest.(check bool) "the same audit log" true (Sue.drain_faults live = Sue.drain_faults twin);
  (* the checkpoints: a warm reboot restores every regime from its own *)
  Sue.crash live;
  Sue.crash twin;
  Alcotest.(check bool) "the same regimes restored" true (Sue.warm_reboot live = Sue.warm_reboot twin);
  Alcotest.(check bool) "the same restored state" true (Sue.equal live twin);
  same "after the warm reboot"

(* -- the campaign hook ------------------------------------------------------- *)

let test_campaign_monitored_case () =
  let inst = Scenarios.pipeline in
  let steps = 40 in
  List.iter
    (fun plan ->
      let m = Campaign.monitored_case ~period:8 ~steps ~plan inst in
      Alcotest.(check bool) "deep checks ran" true (m.Campaign.mc_deep_checks > 0);
      match m.Campaign.mc_first_violation with
      | None -> ()
      | Some (step, _) ->
        Alcotest.(check bool) "step within the run" true (step >= 0 && step <= steps))
    (Fault_plan.generate ~seed:42 ~steps ~count:4 inst.Scenarios.cfg)

(* -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "monitor"
    [
      ( "agreement",
        [
          Alcotest.test_case "clean scenarios match offline" `Quick test_clean_agreement;
          Alcotest.test_case "corpus mutants: totals and detection" `Slow
            test_corpus_agreement_and_detection;
          Alcotest.test_case "first violating step is minimal" `Slow
            test_corpus_first_step_minimal;
        ] );
      ( "flight-recorder",
        [ Alcotest.test_case "violation flushes the ring" `Quick test_violation_dumps_trace ] );
      ( "watch",
        [
          Alcotest.test_case "clean kernel stays clean" `Quick test_watch_clean;
          Alcotest.test_case "realized-state bugs flagged" `Quick test_watch_detects_bugs;
          Alcotest.test_case "reports pinned" `Quick test_watch_reports_pinned;
          Alcotest.test_case "deep checks leave the kernel alone" `Quick test_watch_leaves_kernel_alone;
        ] );
      ( "campaign",
        [ Alcotest.test_case "monitored case" `Quick test_campaign_monitored_case ] );
    ]
