(* The refinement stack: abstract spec <-> Regime_kernel <-> Sue. *)

module Colour = Sep_model.Colour
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Scenarios = Sep_core.Scenarios
module AR = Sep_core.Abstract_regime
module Gen = Sep_check.Gen
module Mspec = Sep_refine.Mspec
module Bspec = Sep_refine.Bspec
module Kact = Sep_refine.Kact
module Stack = Sep_refine.Stack

let check = Alcotest.(check bool)

(* -- Base case: the spec's initial state is phi of a fresh kernel ----------- *)

let init_is_phi () =
  List.iter
    (fun (inst : Scenarios.instance) ->
      let sue = Sue.build inst.cfg in
      let spec = Mspec.init inst.cfg in
      List.iter
        (fun c ->
          check
            (Fmt.str "%s: init = phi(%s)" inst.label (Colour.name c))
            true
            (AR.equal (Sue.phi sue c) (Mspec.machine spec c)))
        (Config.colours inst.cfg))
    Scenarios.all

(* -- Clean lockstep --------------------------------------------------------- *)

let scenarios_lockstep () =
  List.iter
    (fun (label, r) ->
      match r with
      | Ok checks -> check (label ^ " performed checks") true (checks > 0)
      | Error d -> Alcotest.failf "%s diverged: %a" label Stack.pp_divergence d)
    (Stack.scenario_results ~schedules:2 ~steps:250 ~seed:7 ())

let generated_lockstep () =
  for seed = 1 to 10 do
    let cfg, schedule = Gen.run ~seed Stack.machine_case in
    match Stack.check_machine cfg ~schedule ~steps:250 with
    | Ok _ -> ()
    | Error d -> Alcotest.failf "seed %d diverged: %a" seed Stack.pp_divergence d
  done

(* -- Kact workloads --------------------------------------------------------- *)

(* A fixed pipeline: colour 0 computes and sends twice, colour 1 receives,
   mixes and emits. *)
let hand_case =
  {
    Kact.k_emitters = [ false; true ];
    k_chans = [ (0, 1, 2) ];
    k_progs =
      [
        [ Kact.KSet (3, 7); KSend (0, 3); KSet (4, 9); KSend (0, 4) ];
        [ Kact.KRecv (0, 3); KRecv (0, 4); KArith (KAdd, 3, 4); KEmit 3 ];
      ];
    k_quantum = None;
  }

let eval_reference () =
  let out = Kact.eval hand_case in
  Alcotest.(check (list int)) "sent" [ 7; 9 ] out.Kact.o_sent.(0);
  Alcotest.(check (list int)) "bound" [ 7; 9 ] out.Kact.o_bound.(0);
  Alcotest.(check (list int)) "emitted" [ 16 ] out.Kact.o_emitted.(1);
  Alcotest.(check int) "r3 of receiver" 16 out.Kact.o_regs.(1).(3)

let behaviour_clean () =
  (match Stack.check_behaviour hand_case with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "hand case diverged: %a" Stack.pp_divergence d);
  for seed = 1 to 15 do
    let case = Gen.run ~seed (Kact.gen ()) in
    match Stack.check_behaviour case with
    | Ok _ -> ()
    | Error d ->
      Alcotest.failf "seed %d diverged: %a@ %a" seed Stack.pp_divergence d Kact.pp_case case
  done

let stack_tie () =
  (match Stack.check_stack hand_case with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "hand case diverged: %a" Stack.pp_divergence d);
  for seed = 1 to 12 do
    let case = Gen.run ~seed (Kact.gen ()) in
    match Stack.check_stack case with
    | Ok _ -> ()
    | Error d ->
      Alcotest.failf "seed %d diverged: %a@ %a" seed Stack.pp_divergence d Kact.pp_case case
  done

(* The generator always produces channel traffic: delivery bugs (e.g.
   drop-alternate) need sends in flight to manifest, so a silent all-local
   workload would starve the kill race. *)
let generated_cases_have_traffic () =
  for seed = 1 to 40 do
    let case = Gen.run ~seed (Kact.gen ()) in
    let sends =
      List.concat_map
        (List.filter (function Kact.KSend _ -> true | _ -> false))
        case.Kact.k_progs
    in
    check (Fmt.str "seed %d has sends" seed) true (sends <> [])
  done

(* Shrinking must make progress toward a minimum: no candidate grows (the
   quantum-dropping candidate keeps the action count), and a non-trivial
   case always offers at least one strictly smaller candidate. *)
let shrink_candidates_smaller () =
  for seed = 1 to 25 do
    let case = Gen.run ~seed (Kact.gen ()) in
    let sizes = List.of_seq (Seq.map Kact.size (Kact.shrink case)) in
    check (Fmt.str "seed %d no candidate grows" seed) true
      (List.for_all (fun s -> s <= Kact.size case) sizes);
    if Kact.size case > 0 then
      check (Fmt.str "seed %d strictly smaller candidate" seed) true
        (List.exists (fun s -> s < Kact.size case) sizes)
  done

let case_json_roundtrips () =
  let module Json = Sep_util.Json in
  for seed = 1 to 20 do
    let case = Gen.run ~seed (Kact.gen ()) in
    let s = Json.to_string (Kact.case_to_json case) in
    match Json.parse s with
    | Ok j ->
      check (Fmt.str "seed %d case json has programs" seed) true
        (Json.member "programs" j <> None)
    | Error e -> Alcotest.failf "seed %d case json unparseable: %s" seed e
  done

(* -- Mutant kills ----------------------------------------------------------- *)

let kill_table = lazy (Stack.kill_table ~jobs:2 ~seed:42 ~attempts:20 ())

let kills_all () =
  let kills = Lazy.force kill_table in
  Alcotest.(check int) "one row per bug" (List.length Stack.known_bugs) (List.length kills);
  List.iter
    (fun (k : Stack.kill) ->
      check (k.k_bug ^ " killed") true k.k_killed;
      check (k.k_bug ^ " shrunk no larger") true (k.k_shrunk_size <= k.k_original_size);
      check (k.k_bug ^ " divergence step recorded") true (k.k_step >= 0))
    kills

let kill_replays () =
  List.iter
    (fun (k : Stack.kill) ->
      match Stack.replay ~seed:k.k_seed ~bug:k.k_bug with
      | Ok (Some k') ->
        Alcotest.(check int) (k.k_bug ^ " replay step") k.k_step k'.Stack.k_step
      | Ok None -> Alcotest.failf "%s: replay seed %d found no divergence" k.k_bug k.k_seed
      | Error msg -> Alcotest.fail msg)
    (Lazy.force kill_table)

let jobs_deterministic () =
  let table jobs = Stack.kill_table ~jobs ~seed:9 ~attempts:6 () in
  check "kill table identical at -j1 and -j3" true (table 1 = table 3)

(* -- CLI exit codes ---------------------------------------------------------- *)

(* The sibling executable lives one directory up from this test binary in
   the build tree (declared as a dep in the dune stanza); resolve it from
   the binary's own location so the tests pass under both [dune runtest]
   and [dune exec]. *)
let sibling_exe name = Filename.concat (Filename.dirname Sys.executable_name) name
let run_quiet cmd = Sys.command (cmd ^ " > /dev/null 2> /dev/null")
let rushby args = run_quiet (Fmt.str "%s %s" (sibling_exe "../bin/rushby.exe") args)

let replay_divergent_exits_1 () =
  (* a seed the kill table found for forget-register-save: replay must
     reproduce the divergence and signal it through the exit code *)
  Alcotest.(check int) "divergent replay exits 1" 1
    (rushby "refine --replay 858310338 --bug forget-register-save")

let replay_unknown_bug_rejected () =
  check "unknown bug name is an error" true (rushby "refine --replay 1 --bug no-such-bug" <> 0)

let main () =
  Alcotest.run "refine"
    [
      ( "lockstep",
        [
          Alcotest.test_case "init is phi" `Quick init_is_phi;
          Alcotest.test_case "scenarios lockstep" `Quick scenarios_lockstep;
          Alcotest.test_case "generated lockstep" `Quick generated_lockstep;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "reference evaluation" `Quick eval_reference;
          Alcotest.test_case "behavioural square" `Quick behaviour_clean;
          Alcotest.test_case "stream tie" `Quick stack_tie;
          Alcotest.test_case "generator makes traffic" `Quick generated_cases_have_traffic;
          Alcotest.test_case "shrinks are smaller" `Quick shrink_candidates_smaller;
          Alcotest.test_case "case json round-trips" `Quick case_json_roundtrips;
        ] );
      ( "kills",
        [
          Alcotest.test_case "all bugs killed" `Quick kills_all;
          Alcotest.test_case "kills replay by seed" `Quick kill_replays;
          Alcotest.test_case "table identical across -j" `Quick jobs_deterministic;
        ] );
      ( "cli",
        [
          Alcotest.test_case "divergent replay exits 1" `Quick replay_divergent_exits_1;
          Alcotest.test_case "unknown bug rejected" `Quick replay_unknown_bug_rejected;
        ] );
    ]

let () = main ()
