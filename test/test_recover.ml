(* Tests for the fail-operational layer: checkpoints, regime restart,
   kernel warm reboot, the recovery supervisor and its proof obligations,
   the reliable-channel protocol over a lossy link, and the crash-restart
   fuzzer. *)

module Colour = Sep_model.Colour
module Machine = Sep_hw.Machine
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Scenarios = Sep_core.Scenarios
module Abstract_regime = Sep_core.Abstract_regime
module Separability = Sep_core.Separability
module Recover = Sep_recover.Recover
module Proof = Sep_recover.Proof
module Component = Sep_model.Component
module Topology = Sep_model.Topology
module Campaign = Sep_robust.Campaign
module Fault_plan = Sep_robust.Fault_plan
module Net = Sep_distributed.Net
module Diff = Sep_check.Diff
module Fuzz = Sep_check.Fuzz

let check = Alcotest.check

let pipeline = Scenarios.pipeline
let pipeline_cfg = pipeline.Scenarios.cfg

let status =
  Alcotest.testable
    (fun ppf s ->
      Fmt.string ppf
        (match (s : Abstract_regime.status) with
        | Abstract_regime.Running -> "running"
        | Abstract_regime.Waiting -> "waiting"
        | Abstract_regime.Parked -> "parked"))
    ( = )

(* Corrupt [c]'s save area and run until the checksum mismatch parks it
   at a switch-to attempt. The corruption only sticks while [c] is off
   the processor (a swap-out rewrites and reseals the save area), so it
   is re-applied each step until the park; [inputs] can drip external
   words to wake a waiting victim. *)
let park ?(inputs = fun _ -> []) t c =
  let m = Sue.machine t in
  let a = Sue.save_area_base t c + 2 in
  let n = ref 0 in
  while Sue.regime_status t c <> Abstract_regime.Parked && !n < 300 do
    if not (Colour.equal (Sue.current_colour t) c) then Machine.write_phys m a 0xbeef;
    ignore (Sue.step t (inputs !n));
    incr n
  done;
  check status (Colour.name c ^ " parked") Abstract_regime.Parked (Sue.regime_status t c)

(* -- Checkpoints and restart ------------------------------------------------ *)

let test_checkpoints_captured () =
  let t = Sue.build pipeline_cfg in
  for n = 1 to 60 do
    ignore (Sue.step t (if n mod 5 = 0 then [ (0, n) ] else []))
  done;
  Alcotest.(check bool) "checkpoints counted" true ((Sue.kstats t).Sue.ks_checkpoints > 0)

let test_restart_restores_parked_regime () =
  let t = Sue.build pipeline_cfg in
  park t Colour.black;
  ignore (Sue.drain_faults t);
  check
    (Alcotest.testable
       (fun ppf -> function
         | Sue.Restarted -> Fmt.string ppf "Restarted"
         | Sue.Not_parked -> Fmt.string ppf "Not_parked"
         | Sue.Bad_checkpoint -> Fmt.string ppf "Bad_checkpoint")
       ( = ))
    "restart succeeds" Sue.Restarted (Sue.restart t Colour.black);
  Alcotest.(check bool) "black runnable again" true
    (Sue.regime_status t Colour.black <> Abstract_regime.Parked);
  check Alcotest.int "restart counted" 1 (Sue.kstats t).Sue.ks_restarts;
  let audited =
    List.exists
      (function Sue.Regime_restart c -> Colour.equal c Colour.black | _ -> false)
      (Sue.drain_faults t)
  in
  Alcotest.(check bool) "restart audited" true audited;
  (* the revived regime makes progress again *)
  let before = List.assoc Colour.black (Sue.kstats t).Sue.ks_instrs in
  for n = 1 to 60 do
    ignore (Sue.step t (if n mod 4 = 0 then [ (0, n) ] else []))
  done;
  let after = List.assoc Colour.black (Sue.kstats t).Sue.ks_instrs in
  Alcotest.(check bool) "black retires instructions after restart" true (after > before)

let test_restart_requires_parked () =
  let t = Sue.build pipeline_cfg in
  Alcotest.(check bool) "healthy regime is not restartable" true
    (Sue.restart t Colour.black = Sue.Not_parked)

let test_bad_checkpoint_keeps_parked () =
  let t = Sue.build pipeline_cfg in
  park t Colour.black;
  ignore (Sue.drain_faults t);
  Sue.corrupt_checkpoint t Colour.black;
  Alcotest.(check bool) "restart refuses the corrupt checkpoint" true
    (Sue.restart t Colour.black = Sue.Bad_checkpoint);
  check status "black stays parked" Abstract_regime.Parked (Sue.regime_status t Colour.black);
  let audited =
    List.exists
      (function Sue.Checkpoint_corrupt c -> Colour.equal c Colour.black | _ -> false)
      (Sue.drain_faults t)
  in
  Alcotest.(check bool) "corrupt checkpoint audited" true audited

let test_restart_requires_microcode () =
  let t = Sue.build ~impl:Sue.Assembly pipeline_cfg in
  Alcotest.check_raises "restart is a microcode operation"
    (Invalid_argument "Sue.restart: requires the microcode kernel") (fun () ->
      ignore (Sue.restart t Colour.black))

(* -- Warm reboot ------------------------------------------------------------ *)

let test_warm_reboot_restores_and_keeps_audit () =
  let t = Sue.build pipeline_cfg in
  park t Colour.black;
  (* the audit trail of why the halt happened must survive the reboot *)
  let restored = Sue.warm_reboot t in
  Alcotest.(check bool) "black restored" true (List.exists (Colour.equal Colour.black) restored);
  Alcotest.(check bool) "nothing parked afterwards" false (Sue.all_parked t);
  check status "black runnable" Abstract_regime.Running (Sue.regime_status t Colour.black);
  check Alcotest.int "warm reboot counted" 1 (Sue.kstats t).Sue.ks_warm_reboots;
  let log = Sue.drain_faults t in
  let has f = List.exists f log in
  Alcotest.(check bool) "pre-reboot park preserved in the log" true
    (has (function Sue.Save_area_corrupt c -> Colour.equal c Colour.black | _ -> false));
  Alcotest.(check bool) "reboot audited" true (has (function Sue.Warm_reboot -> true | _ -> false));
  Alcotest.(check bool) "revival audited" true
    (has (function Sue.Regime_restart c -> Colour.equal c Colour.black | _ -> false))

(* -- The supervisor --------------------------------------------------------- *)

let test_supervisor_restarts_parked () =
  let t = Sue.build pipeline_cfg in
  let sup = Recover.create t in
  park t Colour.black;
  (match Recover.tick sup with
  | [ Recover.Restarted c ] ->
    Alcotest.(check bool) "the victim was restarted" true (Colour.equal c Colour.black)
  | other ->
    Alcotest.failf "expected one restart, got [%a]"
      Fmt.(list ~sep:(any "; ") Recover.pp_action)
      other);
  check Alcotest.int "restart budget spent" 1 (Recover.restart_count sup Colour.black);
  Alcotest.(check bool) "fully recovered" true (Recover.fully_recovered sup);
  check (Alcotest.list Alcotest.string) "nothing abandoned" []
    (List.map Colour.name (Recover.abandoned sup))

let test_supervisor_budget_exhaustion () =
  let t = Sue.build pipeline_cfg in
  let sup = Recover.create ~policy:{ Recover.max_restarts = 1; max_warm_reboots = 0 } t in
  park t Colour.black;
  (match Recover.tick sup with
  | [ Recover.Restarted _ ] -> ()
  | other ->
    Alcotest.failf "expected a restart, got [%a]" Fmt.(list ~sep:(any "; ") Recover.pp_action) other);
  park t Colour.black;
  (match Recover.tick sup with
  | [ Recover.Gave_up c ] ->
    Alcotest.(check bool) "gave up on the repeat offender" true (Colour.equal c Colour.black)
  | other ->
    Alcotest.failf "expected a give-up, got [%a]" Fmt.(list ~sep:(any "; ") Recover.pp_action) other);
  check status "black stays parked" Abstract_regime.Parked (Sue.regime_status t Colour.black);
  Alcotest.(check bool) "not fully recovered" false (Recover.fully_recovered sup);
  check (Alcotest.list Alcotest.string) "abandonment recorded" [ "BLACK" ]
    (List.map Colour.name (Recover.abandoned sup));
  check Alcotest.int "no further action on later ticks" 0 (List.length (Recover.tick sup))

let test_supervisor_gives_up_on_bad_checkpoint () =
  let t = Sue.build pipeline_cfg in
  let sup = Recover.create t in
  park t Colour.black;
  Sue.corrupt_checkpoint t Colour.black;
  (match Recover.tick sup with
  | [ Recover.Gave_up c ] ->
    Alcotest.(check bool) "gave up on the corrupt checkpoint" true (Colour.equal c Colour.black)
  | other ->
    Alcotest.failf "expected a give-up, got [%a]" Fmt.(list ~sep:(any "; ") Recover.pp_action) other);
  check status "black stays parked" Abstract_regime.Parked (Sue.regime_status t Colour.black)

(* -- Proof obligations across the restart boundary -------------------------- *)

let test_restart_invisible () =
  let t = Sue.build pipeline_cfg in
  park t Colour.black;
  let result, mismatches = Proof.restart_invisible t Colour.black in
  Alcotest.(check bool) "restart happened" true (result = Sue.Restarted);
  check (Alcotest.list Alcotest.string) "no other colour's view changed" [] mismatches

let test_restart_commutes () =
  (* snfe-micro hosts more than two regimes: park two off-processor
     colours and restart them in both orders *)
  let sc = Scenarios.snfe_micro in
  let t = Sue.build sc.Scenarios.cfg in
  let victims =
    match List.filter (fun c -> not (Colour.equal c (Sue.current_colour t))) (Config.colours sc.Scenarios.cfg) with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "scenario too small"
  in
  let a, b = victims in
  let alphabet = Array.of_list sc.Scenarios.alphabet in
  let drip n =
    if Array.length alphabet > 1 && n mod 4 = 0 then
      alphabet.((n / 4) mod (Array.length alphabet - 1) + 1)
    else []
  in
  park ~inputs:drip t a;
  park ~inputs:drip t b;
  Alcotest.(check bool) "restart order does not matter" true (Proof.restart_commutes t a b)

let test_conditions_across_boundary () =
  let t = Sue.build pipeline_cfg in
  let snapshots = ref [ Sue.copy t ] in
  for _ = 1 to 10 do
    ignore (Sue.step t []);
    snapshots := Sue.copy t :: !snapshots
  done;
  park ~inputs:(fun n -> if n mod 4 = 0 then [ (0, n) ] else []) t Colour.black;
  snapshots := Sue.copy t :: !snapshots;
  Alcotest.(check bool) "restarted" true (Sue.restart t Colour.black = Sue.Restarted);
  snapshots := Sue.copy t :: !snapshots;
  for _ = 1 to 10 do
    ignore (Sue.step t []);
    snapshots := Sue.copy t :: !snapshots
  done;
  let report =
    Proof.check_boundary ~seed:11 ~alphabet:pipeline.Scenarios.alphabet (List.rev !snapshots)
  in
  if not (Separability.verified report) then
    Alcotest.failf "conditions fail across the restart boundary: %a" Separability.pp_summary report

(* -- The reliable channel over a lossy link --------------------------------- *)

let test_reliable_net_pins_kernel () =
  let cases = Diff.kernel_vs_reliable_net ~seed:11 ~cases:3 ~steps:120 () in
  List.iter
    (fun (rc : Diff.reliable_case) ->
      check (Alcotest.list Alcotest.string) "lossy delivery is a prefix of the ideal" []
        rc.Diff.rc_mismatches)
    cases;
  let sum f = List.fold_left (fun n rc -> n + f rc) 0 cases in
  Alcotest.(check bool) "loss actually happened" true
    (sum (fun rc -> rc.Diff.rc_stats.Net.ls_lossy_drops) > 0);
  Alcotest.(check bool) "the protocol retransmitted" true
    (sum (fun rc -> rc.Diff.rc_stats.Net.ls_retransmits) > 0);
  Alcotest.(check bool) "acks flowed" true (sum (fun rc -> rc.Diff.rc_stats.Net.ls_acks) > 0);
  Alcotest.(check bool) "words were delivered" true (sum (fun rc -> rc.Diff.rc_delivered) > 0)

let test_reliable_net_high_loss () =
  let link = { Net.default_link_model with Net.lm_drop = 25 } in
  let cases = Diff.kernel_vs_reliable_net ~link ~seed:7 ~cases:2 ~steps:120 () in
  List.iter
    (fun (rc : Diff.reliable_case) ->
      check (Alcotest.list Alcotest.string) "oracle green at 25% drop" [] rc.Diff.rc_mismatches)
    cases

let test_backoff_ceiling_under_heavy_loss () =
  (* at 90% drop nearly every timeout fires again and again, so the
     exponential backoff must reach (and hold at) its cap — a bounded
     retransmission rate, not a storm — while the oracle stays green *)
  let link = { Net.default_link_model with Net.lm_drop = 90 } in
  let cases = Diff.kernel_vs_reliable_net ~link ~seed:3 ~cases:2 ~steps:240 () in
  List.iter
    (fun (rc : Diff.reliable_case) ->
      check (Alcotest.list Alcotest.string) "oracle green at 90% drop" [] rc.Diff.rc_mismatches)
    cases;
  let sum f = List.fold_left (fun n rc -> n + f rc) 0 cases in
  Alcotest.(check bool) "the backoff reached its ceiling" true
    (sum (fun rc -> rc.Diff.rc_stats.Net.ls_backoff_ceiling) > 0);
  Alcotest.(check bool) "retransmission carried on under the cap" true
    (sum (fun rc -> rc.Diff.rc_stats.Net.ls_retransmits) > 0)

let test_cut_wire_silent_discard () =
  (* the wire-cutting argument must survive the reliable protocol: a send
     onto a cut wire is silently discarded before the protocol ever sees
     it — no frames, no acks, no retransmission storm against a wire that
     will never answer *)
  let a = Colour.red and b = Colour.black in
  let src =
    Component.stateless ~name:"src" (function
      | Component.External m -> [ Component.Send (0, m) ]
      | _ -> [])
  in
  let sink =
    Component.stateless ~name:"sink" (function
      | Component.Recv (_, m) -> [ Component.Output m ]
      | _ -> [])
  in
  let topo =
    Topology.cut_wire (Topology.make ~parts:[ (a, src); (b, sink) ] ~wires:[ (a, b, 2) ]) 0
  in
  let net = Net.build ~link:Net.default_link_model topo in
  Net.run net ~steps:60 ~externals:(fun n ->
      if n mod 2 = 0 then [ (a, "w" ^ string_of_int n) ] else []);
  Alcotest.(check (list string)) "nothing crosses the cut wire" [] (Net.outputs net b);
  let s = Net.link_stats net in
  check Alcotest.int "the sender's protocol never engaged" 0 s.Net.ls_retransmits;
  check Alcotest.int "no acks either" 0 s.Net.ls_acks;
  check Alcotest.int "nothing left in flight" 0 s.Net.ls_in_flight

let test_reliable_net_deterministic () =
  let stats () =
    List.map
      (fun (rc : Diff.reliable_case) ->
        ( rc.Diff.rc_delivered,
          rc.Diff.rc_stats.Net.ls_retransmits,
          rc.Diff.rc_stats.Net.ls_acks,
          rc.Diff.rc_stats.Net.ls_lossy_drops ))
      (Diff.kernel_vs_reliable_net ~seed:5 ~cases:2 ~steps:90 ())
  in
  Alcotest.(check bool) "same seed, same protocol behaviour" true (stats () = stats ())

(* -- Give-up under a drained budget, mid-campaign ---------------------------- *)

let test_campaign_give_up_on_drained_budget () =
  (* zero restart and reboot budgets: every parked regime is immediately
     abandoned. The fail-operational promise degrades — nothing is
     recovered — but it degrades to fail-SAFE: abandonment keeps the
     victim parked, and no case may end Violating. *)
  let report =
    Campaign.run_recovery
      ~policy:{ Recover.max_restarts = 0; max_warm_reboots = 0 }
      ~seed:42 ~steps:60 ~count:12 ()
  in
  let _, _, recovered, violating = Campaign.totals report in
  check Alcotest.int "a drained budget recovers nothing" 0 recovered;
  check Alcotest.int "and gives up fail-safe, never violating" 0 violating;
  Alcotest.(check bool) "containment still holds" true (Campaign.holds report)

(* -- The crash-restart fuzzer ------------------------------------------------ *)

let test_fuzz_recovery_clean_and_covers_restarts () =
  let r = Fuzz.fuzz_recovery ~seed:5 ~budget:12 pipeline in
  check Alcotest.int "no separability failure under crash-restart" 0
    (List.length r.Fuzz.rv_failures);
  let restartish =
    List.filter
      (fun k ->
        String.length k >= 12 && String.sub k 0 12 = "e:restarted:")
      r.Fuzz.rv_campaign.Fuzz.cp_keys
  in
  Alcotest.(check bool) "restart coverage keys lit" true (restartish <> [])

(* -- The supervisor's shortcut ------------------------------------------------ *)

(* [Recover.tick] skips its per-colour scan when [Sue.any_parked] reads
   no parked status word. The shortcut is exact only if the two agree on
   every state a supervised kernel passes through: after each step (a
   park may just have happened) and after each round (restarts and warm
   reboots may just have cleared it). The kernels run the recovery
   campaign's plans — single faults plus three-fault stress plans — so
   regimes park, restart, warm-reboot and are given up on. *)
let test_any_parked_exact () =
  let parked_seen = ref 0 and restarts = ref 0 and reboots = ref 0 and give_ups = ref 0 in
  let steps = 200 in
  List.iter
    (fun (sc : Scenarios.instance) ->
      let cfg = sc.Scenarios.cfg in
      let plans =
        Fault_plan.generate ~seed:42 ~steps ~count:40 cfg
        @ Fault_plan.generate_multi ~seed:42 ~steps ~count:20 ~faults_per_plan:3 cfg
      in
      List.iter
        (fun (plan : Fault_plan.t) ->
          let t = Sue.build cfg in
          let sup = Recover.create t in
          let agree when_ =
            let scan = Recover.parked sup <> [] in
            if scan then incr parked_seen;
            if Sue.any_parked t <> scan then
              Alcotest.failf "%s, plan %s, %s: any_parked %b but the scan says %b"
                sc.Scenarios.label plan.Fault_plan.label when_ (Sue.any_parked t) scan
          in
          let inputs = Scenarios.drip sc.Scenarios.alphabet in
          for n = 0 to steps - 1 do
            List.iter (fun (at, f) -> if at = n then Campaign.strike t f) plan.Fault_plan.faults;
            ignore (Sue.step t (inputs n));
            agree (Fmt.str "after step %d" n);
            List.iter
              (function
                | Recover.Restarted _ -> incr restarts
                | Recover.Warm_rebooted _ -> incr reboots
                | Recover.Gave_up _ -> incr give_ups)
              (Recover.tick sup);
            agree (Fmt.str "after round %d" n)
          done)
        plans)
    Scenarios.all;
  Alcotest.(check bool) "regimes parked" true (!parked_seen > 0);
  Alcotest.(check bool) "regimes restarted" true (!restarts > 0);
  Alcotest.(check bool) "kernels warm-rebooted" true (!reboots > 0);
  Alcotest.(check bool) "regimes given up on" true (!give_ups > 0)

let () =
  Alcotest.run "recover"
    [
      ( "checkpoints",
        [
          Alcotest.test_case "captured at effect boundaries" `Quick test_checkpoints_captured;
          Alcotest.test_case "restart restores a parked regime" `Quick
            test_restart_restores_parked_regime;
          Alcotest.test_case "restart requires a parked regime" `Quick test_restart_requires_parked;
          Alcotest.test_case "bad checkpoint keeps the regime parked" `Quick
            test_bad_checkpoint_keeps_parked;
          Alcotest.test_case "restart requires microcode" `Quick test_restart_requires_microcode;
        ] );
      ( "warm reboot",
        [
          Alcotest.test_case "restores regimes, preserves the audit log" `Quick
            test_warm_reboot_restores_and_keeps_audit;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "restarts parked regimes" `Quick test_supervisor_restarts_parked;
          Alcotest.test_case "budget exhaustion" `Quick test_supervisor_budget_exhaustion;
          Alcotest.test_case "gives up on a bad checkpoint" `Quick
            test_supervisor_gives_up_on_bad_checkpoint;
          Alcotest.test_case "parked shortcut is exact" `Quick test_any_parked_exact;
        ] );
      ( "proof obligations",
        [
          Alcotest.test_case "restart invisible to other colours" `Quick test_restart_invisible;
          Alcotest.test_case "restarts commute" `Quick test_restart_commutes;
          Alcotest.test_case "six conditions across the boundary" `Quick
            test_conditions_across_boundary;
        ] );
      ( "reliable channel",
        [
          Alcotest.test_case "pins the kernel under loss" `Quick test_reliable_net_pins_kernel;
          Alcotest.test_case "green at 25% drop" `Quick test_reliable_net_high_loss;
          Alcotest.test_case "backoff ceiling at 90% drop" `Quick
            test_backoff_ceiling_under_heavy_loss;
          Alcotest.test_case "cut wires discard silently" `Quick test_cut_wire_silent_discard;
          Alcotest.test_case "deterministic" `Quick test_reliable_net_deterministic;
        ] );
      ( "drained budget",
        [
          Alcotest.test_case "gives up fail-safe mid-campaign" `Quick
            test_campaign_give_up_on_drained_budget;
        ] );
      ( "crash-restart fuzz",
        [
          Alcotest.test_case "clean with restart coverage" `Quick
            test_fuzz_recovery_clean_and_covers_restarts;
        ] );
    ]
