(* The experiments of EXPERIMENTS.md that no other subcommand prints.

   Each prints its tables and nothing that depends on the host: no time,
   no rate, no domain count, no file read at run time. EXPERIMENTS.md
   shows the output of [rushby experiment eN], and [dune runtest] checks
   it. *)

module Table = Sep_util.Table
module Scenarios = Sep_core.Scenarios
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Separability = Sep_core.Separability
module Mutants = Sep_core.Mutants
module Randomized = Sep_core.Randomized
module Monitor = Sep_core.Monitor
module Regime_kernel = Sep_core.Regime_kernel
module Net = Sep_distributed.Net
module Snfe = Sep_snfe.Snfe
module Spooler = Sep_conventional.Spooler
module Sclass = Sep_lattice.Sclass

let conditions_str report =
  match Separability.failing_conditions report with
  | [] -> "-"
  | cs -> String.concat "," (List.map string_of_int cs)

let verdict report =
  if Separability.verified report then "VERIFIED" else "FAILED " ^ conditions_str report

let check_instance ?impl ?bugs (inst : Scenarios.instance) =
  Separability.check (Sue.to_system ?impl ?bugs ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg)

let e1 () =
  let t = Table.create ~title:"E1: exhaustive Proof of Separability, correct kernels"
      ~columns:[ "instance"; "states"; "checks"; "verdict" ] in
  List.iter
    (fun (inst : Scenarios.instance) ->
      let r = check_instance inst in
      Table.add_row t
        [ inst.Scenarios.label; string_of_int r.Separability.states;
          string_of_int r.Separability.checks; verdict r ])
    (Scenarios.all @ [ Scenarios.scaled ~regimes:2 ~counter_bits:3 ]);
  Table.print t

let e2 () =
  let module Metrics = Sep_core.Metrics in
  let sue = Metrics.sue_profile Scenarios.pipeline.Scenarios.cfg in
  let conv = Metrics.conventional_profile in
  let jobs =
    [
      { Spooler.owner = "a"; level = Sclass.unclassified; text = "m" };
      { Spooler.owner = "b"; level = Sclass.secret; text = "p" };
    ]
  in
  let outcome = Spooler.run ~trusted:true ~jobs in
  let t = Table.create ~title:"E2: kernel comparison"
      ~columns:[ "metric"; "separation kernel (SUE)"; "conventional kernel" ] in
  List.iter (Table.add_row t)
    [
      [ "knows the security policy"; "no"; "yes" ];
      [ "kernel entry points"; string_of_int (List.length sue.Metrics.services);
        string_of_int Sep_conventional.Kernel.syscall_surface ];
      [ "services"; String.concat ", " sue.Metrics.services;
        String.concat ", " conv.Metrics.services ];
      [ "resident kernel data (words)";
        (match sue.Metrics.kernel_words with Some w -> string_of_int w | None -> "n/a");
        "unbounded (PCB/object tables)" ];
      [ "mediates I/O"; "no (devices owned by regimes)"; "yes" ];
      [ "policy decisions in spooler run"; "0";
        string_of_int outcome.Spooler.kernel_stats.Sep_conventional.Kernel.mediated_calls ];
      [ "trusted processes required"; "0"; "1 (the spooler)" ];
      [ "as machine code (words, 2 regimes)";
        string_of_int (Sue.kernel_code_words (Sue.build ~impl:Sue.Assembly Scenarios.pipeline.Scenarios.cfg));
        "n/a" ];
      [ "verification"; sue.Metrics.verification; conv.Metrics.verification ];
    ];
  Table.print t

let e5 () =
  let inst = Scenarios.pipeline in
  let t = Table.create ~title:"E5: the wire-cutting transformation"
      ~columns:[ "system"; "channels"; "verdict" ] in
  let row label channels ?bugs cfg =
    Table.add_row t [ label; channels; verdict (check_instance ?bugs { inst with Scenarios.cfg }) ]
  in
  row "pipeline, wires cut" "cut" (Config.cut_all inst.Scenarios.cfg);
  row "pipeline, wires intact" "shared" (Config.cut_none inst.Scenarios.cfg);
  (* an illicit channel in a supposedly cut system: the uncut-channel mutant *)
  row "claimed cut, actually connected" "illicit" ~bugs:[ Sue.Uncut_channel ]
    (Config.cut_all inst.Scenarios.cfg);
  Table.print t

(* Every component's observable trace on the two substrates. *)
let same_traces ?bugs topo ~steps ~externals =
  let net = Net.build topo in
  let kernel = Regime_kernel.build ?bugs topo in
  Net.run net ~steps ~externals;
  Regime_kernel.run kernel ~steps ~externals;
  let traces = List.map (fun c -> (Net.trace net c, Regime_kernel.trace kernel c))
      (Sep_model.Topology.colours topo) in
  (traces, List.for_all (fun (a, b) -> a = b) traces)

let e7 () =
  let t = Table.create ~title:"E7: per-component observable traces, kernelized vs distributed"
      ~columns:[ "scenario"; "components"; "trace events"; "identical" ] in
  let scripted script n = List.filter_map (fun (s, c, m) -> if s = n then Some (c, m) else None) script in
  let row label topo ~steps ~externals =
    let traces, equal = same_traces topo ~steps ~externals in
    let events = List.fold_left (fun n (a, _) -> n + List.length a) 0 traces in
    Table.add_row t
      [ label; string_of_int (List.length traces); string_of_int events;
        (if equal then "yes" else "NO") ]
  in
  let snfe = Snfe.topology Snfe.default_config in
  row "snfe duplex" snfe ~steps:30 ~externals:(fun n ->
      if n < 5 then [ (Snfe.red, Fmt.str "host packet %d" n) ]
      else if n = 6 then [ (Snfe.black, "PKT HDR seq=0 len=2|2|aabb") ]
      else []);
  row "mls system" (Sep_apps.Mls.topology ()) ~steps:40 ~externals:(scripted Sep_apps.Mls.demo_script);
  row "accat guard" (Sep_apps.Guard_app.topology ()) ~steps:25
    ~externals:(scripted Sep_apps.Guard_app.demo_script);
  Table.print t;
  let kernel = Regime_kernel.build snfe in
  Regime_kernel.run kernel ~steps:30 ~externals:(fun n ->
      if n < 5 then [ (Snfe.red, Fmt.str "host packet %d" n) ] else []);
  Fmt.pr "kernel bookkeeping for the snfe run: %d context switches, %d channel copies@."
    (Regime_kernel.context_switches kernel) (Regime_kernel.messages_copied kernel);
  (* the check has teeth: a kernel that fails at its one job is caught *)
  List.iter
    (fun bug ->
      let _, equal =
        same_traces ~bugs:[ bug ] snfe ~steps:25 ~externals:(fun n ->
            if n < 5 then [ (Snfe.red, Fmt.str "pkt%d" n) ] else [])
      in
      Fmt.pr "buggy kernel (%a): %s@." Regime_kernel.pp_bug bug
        (if equal then "NOT DETECTED" else "detected by trace divergence"))
    Regime_kernel.all_bugs

let e9 () =
  let jobs =
    [
      { Spooler.owner = "alice"; level = Sclass.unclassified; text = "memo" };
      { Spooler.owner = "bob"; level = Sclass.secret; text = "plans" };
      { Spooler.owner = "carol"; level = Sclass.unclassified; text = "note" };
    ]
  in
  let t = Table.create ~title:"E9: printing with cleanup, three designs"
      ~columns:[ "design"; "jobs printed"; "spool files left"; "policy exemptions used" ] in
  List.iter
    (fun trusted ->
      let o = Spooler.run ~trusted ~jobs in
      Table.add_row t
        [ Fmt.str "conventional kernel, %s spooler" (if trusted then "trusted" else "untrusted");
          string_of_int o.Spooler.jobs_printed; string_of_int o.Spooler.spool_files_left;
          string_of_int o.Spooler.trust_exercised ])
    [ false; true ];
  let r = Sep_apps.Mls.run Sep_snfe.Substrate.Kernelized Sep_apps.Mls.demo_script in
  let banners =
    List.filter (fun l -> Sep_components.Protocol.verb l = "BANNER") r.Sep_apps.Mls.printer_output
  in
  Table.add_row t
    [ "separation kernel + printer server"; string_of_int (List.length banners);
      string_of_int (List.length r.Sep_apps.Mls.spool_files_left);
      "0 (privileged wire is part of the design)" ];
  Table.print t

let e10 () =
  let t = Table.create ~title:"E10a: exhaustive checking cost vs instance size"
      ~columns:[ "instance"; "regimes"; "counter bits"; "states"; "checks" ] in
  List.iter
    (fun (regimes, bits) ->
      let inst = Scenarios.scaled ~regimes ~counter_bits:bits in
      let r = check_instance inst in
      Table.add_row t
        [ inst.Scenarios.label; string_of_int regimes; string_of_int bits;
          string_of_int r.Separability.states; string_of_int r.Separability.checks ])
    [ (2, 1); (2, 2); (2, 4); (2, 6); (3, 2); (3, 3) ];
  Table.print t;
  let inst = Scenarios.pipeline in
  let t = Table.create ~title:"E10b: randomized checking cost on the pipeline instance"
      ~columns:[ "walks"; "walk length"; "sampled states"; "checks"; "verdict" ] in
  List.iter
    (fun (walks, walk_len) ->
      let params = { Randomized.walks; walk_len; scrambles = 2 } in
      let r = Randomized.check ~params ~seed:7 ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
      Table.add_row t
        [ string_of_int walks; string_of_int walk_len; string_of_int r.Separability.states;
          string_of_int r.Separability.checks; verdict r ])
    [ (4, 32); (8, 64); (16, 128); (32, 256) ];
  Table.print t;
  (* the checker's bucketing against the textbook pairwise quantification *)
  let t = Table.create ~title:"E10c: checker ablation, bucketed vs pairwise (same sample)"
      ~columns:[ "sampled states"; "bucketed checks"; "pairwise checks"; "verdicts agree" ] in
  let sys = Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
  List.iter
    (fun walks ->
      let params = { Randomized.walks; walk_len = 48; scrambles = 1 } in
      let states = Randomized.sample_states ~params ~seed:7 ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
      let fast = Separability.check_states sys states in
      let slow = Separability.check_states_pairwise sys states in
      Table.add_row t
        [ string_of_int (List.length states); string_of_int fast.Separability.checks;
          string_of_int slow.Separability.checks;
          string_of_bool (Separability.verified fast = Separability.verified slow) ])
    [ 2; 4; 8 ];
  Table.print t

let e11 () =
  let inst = Scenarios.pipeline in
  let t = Table.create
      ~title:"E11: Proof of Separability vs black-box noninterference testing \
              (pipeline scenario; 40 trials x 60 steps per colour)"
      ~columns:[ "kernel"; "PoS verdict"; "I/O-testing verdict" ] in
  let row label bugs =
    let sys = Sue.to_system ~bugs ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
    let ni =
      Sep_core.Noninterference.check ~prng:(Sep_util.Prng.create 1981) ~trials:40 ~word_len:60
        ~splice:(Sep_core.Noninterference.sue_splice (Sue.build ~bugs inst.Scenarios.cfg)) sys
    in
    Table.add_row t
      [ label; verdict (Separability.check sys);
        (if Sep_core.Noninterference.interference_free ni then "no divergence observed"
         else Fmt.str "INTERFERENCE (%d trials)" (List.length ni.Sep_core.Noninterference.failures)) ]
  in
  row "correct kernel" [];
  List.iter
    (fun (e : Mutants.expectation) ->
      if e.Mutants.scenario.Scenarios.label = inst.Scenarios.label then
        row (Fmt.str "%a" Sue.pp_bug e.Mutants.bug) [ e.Mutants.bug ])
    Mutants.catalogue;
  Table.print t

let e12 () =
  let module Sri = Sep_apps.Sri_checks in
  let prng = Sep_util.Prng.create 1977 in
  let secure machine alphabet =
    Sep_policy.Mls_model.secure
      (Sep_policy.Mls_model.check ~prng ~trials:60 ~word_len:14 ~alphabet ~levels:Sri.levels machine)
  in
  let line name ok =
    Fmt.pr "%s: %s@." name
      (if ok then "multilevel secure under the SRI model" else "NOT multilevel secure")
  in
  let fs_ok = secure (Sri.file_server_machine ()) Sri.file_server_alphabet in
  line "file server" fs_ok;
  let guard_ok = secure (Sri.guard_machine ()) Sri.guard_alphabet in
  line "accat guard" guard_ok;
  Fmt.pr "per-component thesis (file server secure, guard not): %b@." (fs_ok && not guard_ok)

let e13 () =
  let t = Table.create ~title:"E13: Proof of Separability over the kernel implementation"
      ~columns:[ "instance"; "kernel"; "code words"; "states"; "checks"; "verdict" ] in
  List.iter
    (fun (inst : Scenarios.instance) ->
      List.iter
        (fun impl ->
          let r = check_instance ~impl inst in
          Table.add_row t
            [ inst.Scenarios.label; Fmt.str "%a" Sue.pp_impl impl;
              (match Sue.kernel_code_words (Sue.build ~impl inst.Scenarios.cfg) with
              | 0 -> "-"
              | n -> string_of_int n);
              string_of_int r.Separability.states; string_of_int r.Separability.checks; verdict r ])
        [ Sue.Microcode; Sue.Assembly ])
    [ Scenarios.interrupt; Scenarios.snfe_micro; Scenarios.pipeline ];
  Table.print t;
  let caught =
    List.filter
      (fun (e : Mutants.expectation) ->
        Mutants.detected e (check_instance ~impl:Sue.Assembly ~bugs:[ e.Mutants.bug ] e.Mutants.scenario))
      Mutants.catalogue
  in
  Fmt.pr "seeded bugs caught in the machine-code kernel by their predicted conditions: %d/%d@."
    (List.length caught) (List.length Mutants.catalogue)

let e17 () =
  let jobs = 4 in
  let t = Table.create ~title:(Fmt.str "E17: reports at -j 1 and -j %d (seed 42)" jobs)
      ~columns:[ "driver"; "identical" ] in
  let row name run render =
    Table.add_row t [ name; (if render (run 1) = render (run jobs) then "yes" else "NO") ]
  in
  let module C = Sep_robust.Campaign in
  row "fault campaign (200 steps, 40 plans/scenario)"
    (fun jobs -> C.run ~jobs ~seed:42 ~steps:200 ~count:40 ())
    C.report_to_jsonl;
  row "recovery campaign (200 steps, 40 plans/scenario)"
    (fun jobs -> C.run_recovery ~jobs ~seed:42 ~steps:200 ~count:40 ())
    C.report_to_jsonl;
  row "fuzz pipeline (budget 60)"
    (fun jobs -> Sep_check.Fuzz.fuzz_scenario ~jobs ~seed:42 ~budget:60 Scenarios.pipeline)
    Sep_check.Fuzz.scenario_result_to_jsonl;
  row "randomized walks (32 x 64, pipeline)"
    (fun jobs ->
      Randomized.check ~jobs ~params:{ Randomized.walks = 32; walk_len = 64; scrambles = 2 }
        ~seed:42 ~inputs:Scenarios.pipeline.Scenarios.alphabet Scenarios.pipeline.Scenarios.cfg)
    (Fmt.str "%a" Separability.pp_report);
  Table.print t

(* A live kernel driven by the scenario's input drip, watched. *)
let watched ?bugs ~period ~steps (inst : Scenarios.instance) =
  let t = Sue.build ?bugs inst.Scenarios.cfg in
  let w = Monitor.watch ~period ~inputs:inst.Scenarios.alphabet t in
  let inputs = Scenarios.drip inst.Scenarios.alphabet in
  for n = 0 to steps - 1 do
    ignore (Sue.step t (inputs n));
    Monitor.observe w
  done;
  w

let e18 () =
  let t = Table.create ~title:"E18a: online watch of a 5000-step microcode run (period 1000)"
      ~columns:[ "instance"; "deep checks"; "condition checks"; "clean" ] in
  List.iter
    (fun (inst : Scenarios.instance) ->
      let w = watched ~period:1000 ~steps:5000 inst in
      Table.add_row t
        [ inst.Scenarios.label; string_of_int (Monitor.deep_checks w);
          string_of_int (Monitor.watch_report w).Separability.checks;
          (if Monitor.watch_first_violation w = None then "yes" else "NO") ])
    (Scenarios.all @ [ Scenarios.scaled ~regimes:2 ~counter_bits:3 ]);
  Table.print t;
  let t = Table.create ~title:"E18b: the watch alone on seeded bugs (pipeline, 120 steps, period 1)"
      ~columns:[ "bug"; "first violation" ] in
  List.iter
    (fun bug ->
      let w = watched ~bugs:[ bug ] ~period:1 ~steps:120 Scenarios.pipeline in
      Table.add_row t
        [ Fmt.str "%a" Sue.pp_bug bug;
          (match Monitor.watch_first_violation w with
          | None -> "not seen"
          | Some (step, f) -> Fmt.str "condition %d at step %d" f.Separability.condition step) ])
    Sue.all_bugs;
  Table.print t

(* E19's directed faulty workload: crash the last shard a third of the way
   in (failover from checkpoints), partition the first data wire two
   thirds in. Recovery shows in the events, not in lost words. *)
let e19 () =
  let module F = Sep_fed.Fed in
  let module Fault_plan = Sep_robust.Fault_plan in
  let module Telemetry = Sep_obs.Telemetry in
  let steps = 2_000 in
  let t = Table.create ~title:"E19: federated runs, clean vs node faults (2000 steps)"
      ~columns:[ "scenario"; "workload"; "words"; "lat p50"; "lat p95"; "lat p99"; "node events";
                 "recoveries"; "monitor" ] in
  List.iter
    (fun (spec : F.spec) ->
      let faults =
        { Fault_plan.label = "node-faults";
          faults = [ (steps / 3, Fault_plan.Shard_crash { shard = F.nshards_of spec - 1 });
                     (2 * steps / 3, Fault_plan.Link_partition { link = 0; window = 40 }) ] }
      in
      List.iter
        (fun plan ->
          let fed = F.build ?plan ~monitor:true spec in
          F.run fed ~steps;
          let ob = F.finish fed in
          let h = Telemetry.histogram (Net.telemetry (F.net fed)) "net.latency.steps" in
          Table.add_row t
            [ spec.F.fs_label; (if plan = None then "clean" else "node faults");
              string_of_int ob.F.fob_delivered; Fmt.str "%.0f" (Telemetry.p50 h);
              Fmt.str "%.0f" (Telemetry.p95 h); Fmt.str "%.0f" (Telemetry.p99 h);
              string_of_int (List.length ob.F.fob_events);
              string_of_int (List.length ob.F.fob_recoveries);
              (if ob.F.fob_first_violation = None then "clean" else "VIOLATION") ])
        [ None; Some faults ])
    Sep_fed.Fed_scenarios.all;
  Table.print t

let all =
  [ ("e1", e1); ("e2", e2); ("e5", e5); ("e7", e7); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e17", e17); ("e18", e18); ("e19", e19) ]

let run names =
  List.iter (fun f -> f ()) (if names = [] then List.map snd all else names);
  0
