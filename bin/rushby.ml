(* rushby: command-line front end to the separation-kernel reproduction.

   One subcommand per activity: verifying kernels (exhaustively or by
   randomized sampling), running the IFA baseline, driving the SNFE, the
   Guard and the MLS system, measuring covert bandwidth, printing the
   kernel-comparison metrics, the campaigns, and printing the
   EXPERIMENTS.md tables that no other subcommand prints (experiment.ml).
   A subcommand parses its flags, calls the library, prints, and hands
   --json the library's own report lines. *)

open Cmdliner
module Json = Sep_util.Json
module Scenarios = Sep_core.Scenarios
module Sue = Sep_core.Sue
module Separability = Sep_core.Separability
module Campaign = Sep_robust.Campaign
module Diff = Sep_check.Diff
module Score = Sep_check.Score

let scenario_conv =
  let labels =
    String.concat "|" (List.map (fun (i : Scenarios.instance) -> i.label) Scenarios.all)
  in
  let parse s =
    Option.to_result (Scenarios.find s) ~none:(`Msg (Fmt.str "unknown scenario %s (%s)" s labels))
  in
  Arg.conv (parse, fun ppf (i : Scenarios.instance) -> Fmt.string ppf i.label)

let bug_conv =
  let parse s =
    Option.to_result (Score.bug_of_name s)
      ~none:
        (`Msg
           (Fmt.str "unknown bug %s (one of: %s)" s
              (String.concat ", " (List.map Score.bug_name Sue.all_bugs))))
  in
  Arg.conv (parse, Sue.pp_bug)

let scenario_arg =
  Arg.(value & opt scenario_conv Scenarios.pipeline & info [ "scenario" ] ~doc:"Scenario: pipeline, interrupt, snfe-micro or preemptive.")

let bugs_arg =
  Arg.(value & opt_all bug_conv [] & info [ "bug" ] ~doc:"Inject a kernel bug (repeatable).")

let uncut_arg =
  Arg.(value & flag & info [ "uncut" ] ~doc:"Skip the wire-cutting transformation (channels left shared).")

(* the one seed flag: every randomized subcommand (verify-random,
   bandwidth, inject, fuzz, recover) shares this definition, so --seed
   means the same thing, with the same default, everywhere *)
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

(* the other flags several subcommands share, one definition each; a
   subcommand supplies its own default and doc *)
let smoke_arg doc = Arg.(value & flag & info [ "smoke" ] ~doc)
let json_arg doc = Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
let steps_arg default doc = Arg.(value & opt int default & info [ "steps" ] ~doc)
let count_arg default doc = Arg.(value & opt int default & info [ "count" ] ~doc)

let jobs_arg =
  Arg.(value
       & opt int (Sep_par.Par.default_jobs ())
       & info [ "j"; "jobs" ]
           ~doc:
             "Worker domains for parallel verification (default: the recommended domain count). \
              Results are bit-identical for any value.")

let impl_arg =
  let impl_of_string = function
    | "microcode" -> Ok Sue.Microcode
    | "assembly" | "asm" -> Ok Sue.Assembly
    | other -> Error (`Msg ("unknown kernel implementation " ^ other))
  in
  let impl_conv = Arg.conv (impl_of_string, Sue.pp_impl) in
  Arg.(value & opt impl_conv Sue.Microcode
       & info [ "impl" ] ~doc:"Kernel implementation: microcode or assembly (machine code).")

(* [Some reason] when the kernel implementation cannot run the scenario.
   [Sue.build]'s own validation is the one statement of what each kernel
   supports (the assembly kernel has no preemption quantum). *)
let unsupported impl (sc : Scenarios.instance) =
  match Sue.build ~impl sc.cfg with _ -> None | exception Invalid_argument reason -> Some reason

(* Whole-catalogue modes skip the scenarios the kernel cannot run. *)
let print_skipped (sc : Scenarios.instance) reason = Fmt.pr "  %-12s skipped: %s@." sc.label reason

(* --scenario and --impl together: a combination the kernel cannot run is
   a usage error, reported once here for every subcommand taking both *)
let scenario_impl_arg =
  let check (scenario : Scenarios.instance) impl =
    match unsupported impl scenario with
    | None -> (scenario, impl)
    | Some reason ->
      Fmt.epr "rushby: scenario %s does not run on the %a kernel: %s@." scenario.label Sue.pp_impl
        impl reason;
      exit 2
  in
  Term.(const check $ scenario_arg $ impl_arg)

let trace_json_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-json" ] ~docv:"FILE"
           ~doc:"Also write a machine-readable JSONL record of the run to $(docv).")

let exit_of ok = if ok then 0 else 1

(* a bad --trace-json/--json path is a usage problem, not an internal error *)
let graceful_write f = try f () with Sys_error msg -> Fmt.epr "rushby: %s@." msg; exit 1

(* the one file writer, for --json, --trace-json, --chrome and the corpus *)
let write_file file contents =
  graceful_write (fun () -> Out_channel.with_open_text file (fun oc -> output_string oc contents))

let write_records file lines = Option.iter (fun f -> write_file f (Sep_obs.Sink.jsonl lines)) file

(* a campaign's --json report, announced on stdout *)
let write_jsonl file lines =
  write_records file lines;
  Option.iter (Fmt.pr "wrote %s@.") file

(* a record the CLI puts around a library serialiser *)
let record kind fields = Json.Obj (("kind", Json.String kind) :: fields)

(* the --trace-json records of a checker run *)
let check_records ?kernel_counters report =
  let report = record "report" [ ("report", Separability.report_to_json report) ] in
  let counters =
    Option.to_list
      (Option.map
         (fun tel -> record "kernel_counters" [ ("telemetry", Sep_obs.Telemetry.to_json tel) ])
         kernel_counters)
  in
  (report :: counters) @ [ record "spans" [ ("telemetry", Sep_obs.Span.to_json ()) ] ]

(* -- verify ---------------------------------------------------------------- *)

let verify_run ((scenario : Scenarios.instance), impl) bugs uncut trace_json =
  if trace_json <> None then Sep_obs.Span.set_enabled true;
  let cfg = if uncut then Sep_core.Config.cut_none scenario.cfg else scenario.cfg in
  let sys = Sue.to_system ~bugs ~impl ~inputs:scenario.alphabet cfg in
  let report = Separability.check sys in
  Fmt.pr "%a@." Separability.pp_report report;
  (* the exploration's kernel counters accumulate in the system's shared
     initial instance: they count the search's own work, one INPUT per
     state and input and one NEXTOP per post-INPUT class, plus the
     operations condition 1 runs in states that are never post-INPUT *)
  let kernel_counters = Option.map Sue.telemetry (List.nth_opt sys.Sep_model.System.initial 0) in
  write_records trace_json (check_records ?kernel_counters report);
  exit_of (Separability.verified report)

let verify_cmd =
  let doc = "Exhaustive Proof of Separability over a micro-scenario." in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const verify_run $ scenario_impl_arg $ bugs_arg $ uncut_arg $ trace_json_arg)

(* -- verify-random ---------------------------------------------------------- *)

let walks_arg = Arg.(value & opt int 8 & info [ "walks" ] ~doc:"Random walks.")
let walk_len_arg = Arg.(value & opt int 64 & info [ "len" ] ~doc:"Steps per walk.")

let scrambles_arg =
  Arg.(value & opt int 2 & info [ "scrambles" ] ~doc:"Scrambled partners per state per colour.")

let pp_schedule ppf sched =
  if sched = [] then Fmt.string ppf "(empty)"
  else
    Fmt.(
      list ~sep:(any " | ") (fun ppf step ->
          if step = [] then Fmt.string ppf "-"
          else list ~sep:comma (fun ppf (d, w) -> Fmt.pf ppf "d%d<=%d" d w) ppf step))
      ppf sched

(* On a randomized failure, print standalone minimized counterexamples
   instead of the raw sampled-run dump, plus the command that reruns this
   check and prints them again. *)
let print_minimized (scenario : Scenarios.instance) bugs impl seed params conditions =
  let minimized =
    Score.minimize_randomized ~bugs ~impl ~params ~seed ~inputs:scenario.alphabet ~conditions
      scenario.cfg
  in
  List.iter
    (fun (m : Score.minimized) ->
      Fmt.pr
        "minimized counterexample (condition%s %s): %d-step schedule %a  [check seed %d, %d \
         scrambles, %d shrink steps]@."
        (if List.compare_length_with m.mz_conditions 1 > 0 then "s" else "")
        (String.concat "," (List.map string_of_int m.mz_conditions))
        (List.length m.mz_schedule) pp_schedule m.mz_schedule m.mz_seed m.mz_scrambles
        m.mz_shrink_steps)
    minimized;
  let reproduced c =
    List.exists (fun (m : Score.minimized) -> List.mem c m.mz_conditions) minimized
  in
  (match List.filter (fun c -> not (reproduced c)) conditions with
  | [] -> ()
  | missing ->
    Fmt.pr "condition%s %s: no standalone schedule found; rerun with --trace-json for the full run@."
      (if List.compare_length_with missing 1 > 0 then "s" else "")
      (String.concat "," (List.map string_of_int missing)));
  Fmt.pr "replay: rushby verify-random --seed %d --scenario %s%s%s --walks %d --len %d --scrambles %d@."
    seed scenario.label
    (String.concat "" (List.map (fun b -> " --bug " ^ Score.bug_name b) bugs))
    (match impl with Sue.Assembly -> " --impl assembly" | Sue.Microcode -> "")
    params.Sep_core.Randomized.walks params.walk_len params.scrambles

let verify_random_run ((scenario : Scenarios.instance), impl) bugs seed jobs walks walk_len
    scrambles trace_json =
  if trace_json <> None then Sep_obs.Span.set_enabled true;
  let params = { Sep_core.Randomized.walks; walk_len; scrambles } in
  let report =
    Sep_core.Randomized.check ~bugs ~impl ~jobs ~params ~seed ~inputs:scenario.alphabet scenario.cfg
  in
  let verified = Separability.verified report in
  if verified then Fmt.pr "%a@." Separability.pp_report report
  else begin
    Fmt.pr "%a@." Separability.pp_summary report;
    print_minimized scenario bugs impl seed params (Separability.failing_conditions report)
  end;
  write_records trace_json (check_records report);
  exit_of verified

let verify_random_cmd =
  let doc = "Randomized Proof of Separability (random walks plus scrambled partners)." in
  Cmd.v (Cmd.info "verify-random" ~doc)
    Term.(
      const verify_random_run $ scenario_impl_arg $ bugs_arg $ seed_arg $ jobs_arg $ walks_arg
      $ walk_len_arg $ scrambles_arg $ trace_json_arg)

(* -- mutants ---------------------------------------------------------------- *)

let mutants_run () =
  let table = Sep_util.Table.create ~title:"Seeded kernel bugs vs the six conditions"
      ~columns:[ "bug"; "scenario"; "predicted"; "failing"; "caught" ] in
  let all_caught = ref true in
  List.iter
    (fun (e : Sep_core.Mutants.expectation) ->
      let report = Sep_core.Mutants.run e in
      let caught = Sep_core.Mutants.detected e report in
      if not caught then all_caught := false;
      Sep_util.Table.add_row table
        [
          Score.bug_name e.bug;
          e.scenario.label;
          string_of_int e.primary;
          String.concat "," (List.map string_of_int (Separability.failing_conditions report));
          (if caught then "yes" else "NO");
        ])
    Sep_core.Mutants.catalogue;
  Sep_util.Table.print table;
  exit_of !all_caught

let mutants_cmd =
  Cmd.v (Cmd.info "mutants" ~doc:"Check every seeded kernel bug against its predicted condition.")
    Term.(const mutants_run $ const ())

(* -- ifa -------------------------------------------------------------------- *)

let ifa_run () =
  let table =
    Sep_util.Table.create ~title:"Information Flow Analysis verdicts"
      ~columns:[ "program"; "semantically secure"; "IFA verdict"; "taint verdict"; "note" ]
  in
  List.iter
    (fun (case : Sep_ifa.Programs.case) ->
      let violations = Sep_ifa.Certify.certify case.env case.program in
      let taint = Sep_ifa.Taint.run ~env:case.env case.store case.program in
      Sep_util.Table.add_row table
        [
          case.name;
          (if case.expect_secure then "yes" else "no");
          (if violations = [] then "certified" else Fmt.str "rejected (%d flows)" (List.length violations));
          (if taint.Sep_ifa.Taint.violations = [] then "clean" else "flagged");
          case.note;
        ])
    Sep_ifa.Programs.all;
  Sep_util.Table.print table;
  0

let ifa_cmd = Cmd.v (Cmd.info "ifa" ~doc:"Run the IFA baseline over the program catalogue.") Term.(const ifa_run $ const ())

(* -- snfe ------------------------------------------------------------------- *)

let censor_of_string = function
  | "off" -> Ok Sep_components.Censor.Off
  | "basic" -> Ok Sep_components.Censor.Basic
  | "strict" -> Ok Sep_components.Censor.Strict
  | s -> Error (`Msg ("unknown censor mode " ^ s))

let censor_conv = Arg.conv (censor_of_string, Sep_components.Censor.pp_mode)

let censor_arg =
  Arg.(value & opt censor_conv Sep_components.Censor.Basic & info [ "censor" ] ~doc:"Censor mode: off, basic or strict.")

let kind_arg =
  let kind_of_string = function
    | "distributed" -> Ok Sep_snfe.Substrate.Distributed
    | "kernelized" -> Ok Sep_snfe.Substrate.Kernelized
    | s -> Error (`Msg ("unknown substrate " ^ s))
  in
  let kind_conv = Arg.conv (kind_of_string, Sep_snfe.Substrate.pp_kind) in
  Arg.(value & opt kind_conv Sep_snfe.Substrate.Kernelized & info [ "substrate" ] ~doc:"distributed or kernelized.")

let snfe_run kind censor =
  let cfg = { Sep_snfe.Snfe.default_config with censor_mode = censor } in
  let outbound = [ "attack at dawn"; "hold position"; "regroup at bridge" ] in
  let inbound = [ "acknowledged"; "send supplies" ] in
  let r = Sep_snfe.Snfe.run_duplex kind cfg ~outbound ~inbound ~steps:40 in
  let packets = Fmt.(list ~sep:cut (fun ppf s -> Fmt.pf ppf "  %s" s)) in
  Fmt.pr "@[<v>network saw:@,%a@,host saw:@,%a@,cleartext leaks: %d@]@." packets r.net_packets
    packets r.host_packets (List.length r.cleartext_on_net);
  exit_of (r.cleartext_on_net = [])

let snfe_cmd =
  Cmd.v (Cmd.info "snfe" ~doc:"Drive the secure network front end end-to-end.")
    Term.(const snfe_run $ kind_arg $ censor_arg)

(* -- bandwidth -------------------------------------------------------------- *)

let bandwidth_run messages seed =
  let table =
    Sep_util.Table.create
      ~title:"Covert bandwidth through the bypass (bits reliably recovered per message)"
      ~columns:[ "encoder"; "censor off"; "censor basic"; "censor strict" ]
  in
  List.iter
    (fun vector ->
      let cell mode =
        let b = Sep_snfe.Snfe.measure_covert ~vector ~mode ~messages ~seed () in
        Fmt.str "%.2f" b.Sep_snfe.Snfe.bits_per_message
      in
      Sep_util.Table.add_row table
        (Fmt.str "%a" Sep_components.Covert.pp_vector vector
        :: List.map cell Sep_components.Censor.[ Off; Basic; Strict ]))
    Sep_components.Covert.[ Pad_field; Length_raw; Length_bucket ];
  Sep_util.Table.print table;
  0

let bandwidth_cmd =
  let messages = Arg.(value & opt int 200 & info [ "messages" ] ~doc:"Covert messages to send.") in
  Cmd.v (Cmd.info "bandwidth" ~doc:"Measure covert bandwidth through the SNFE bypass (E6).")
    Term.(const bandwidth_run $ messages $ seed_arg)

(* -- guard / mls / spooler --------------------------------------------------- *)

let guard_run kind =
  let r = Sep_apps.Guard_app.run kind Sep_apps.Guard_app.demo_script in
  let s = r.stats in
  Fmt.pr "@[<v>HIGH screen: %a@,LOW screen: %a@,officer saw %d reviews@,%d up, %d reviewed, %d released, %d denied@]@."
    Fmt.(Dump.list string) r.high_screen Fmt.(Dump.list string) r.low_screen
    (List.length r.officer_screen) s.passed_up s.reviewed s.released s.denied;
  0

let guard_cmd = Cmd.v (Cmd.info "guard" ~doc:"Run the ACCAT Guard demo.") Term.(const guard_run $ kind_arg)

let mls_run kind =
  let r = Sep_apps.Mls.run kind Sep_apps.Mls.demo_script in
  List.iter
    (fun (c, lines) ->
      Fmt.pr "== %s ==@." (Sep_model.Colour.name c);
      List.iter (Fmt.pr "  %s@.") lines)
    r.screens;
  Fmt.pr "== printer ==@.";
  List.iter (Fmt.pr "  %s@.") r.printer_output;
  Fmt.pr "spool files left: %a@." Fmt.(Dump.list string) r.spool_files_left;
  0

let mls_cmd = Cmd.v (Cmd.info "mls" ~doc:"Run the multilevel multi-user system demo.") Term.(const mls_run $ kind_arg)

let spooler_run trusted =
  let jobs =
    [
      { Sep_conventional.Spooler.owner = "alice"; level = Sep_lattice.Sclass.unclassified; text = "memo" };
      { Sep_conventional.Spooler.owner = "bob"; level = Sep_lattice.Sclass.secret; text = "plans" };
    ]
  in
  Fmt.pr "%a@." Sep_conventional.Spooler.pp_outcome (Sep_conventional.Spooler.run ~trusted ~jobs);
  0

let spooler_cmd =
  let trusted = Arg.(value & flag & info [ "trusted" ] ~doc:"Grant the spooler the trusted-process exemption.") in
  Cmd.v (Cmd.info "spooler" ~doc:"Run the conventional-kernel spooler scenario (E9).")
    Term.(const spooler_run $ trusted)

(* -- dot --------------------------------------------------------------------- *)

let dot_run which =
  let topo, highlight =
    match which with
    | "snfe" ->
      Sep_snfe.Snfe.
        ( topology default_config,
          [ censor_tx; censor_rx; crypto_tx; crypto_rx ] )
    | "mls" -> Sep_apps.Mls.(topology (), [ file_server; printer; auth ])
    | "guard" -> Sep_apps.Guard_app.(topology (), [ guard ])
    | other ->
      Fmt.epr "unknown system %s (snfe|mls|guard)@." other;
      exit 1
  in
  print_string (Sep_policy.Channel_matrix.to_dot ~highlight (Sep_policy.Channel_matrix.of_topology topo));
  0

let dot_cmd =
  let which = Arg.(value & pos 0 string "snfe" & info [] ~docv:"SYSTEM" ~doc:"snfe, mls or guard.") in
  Cmd.v (Cmd.info "dot" ~doc:"Emit a system's channel diagram as Graphviz (trusted boxes doubled).")
    Term.(const dot_run $ which)

(* -- trace ------------------------------------------------------------------- *)

let chrome_arg =
  Arg.(value & opt (some string) None
       & info [ "chrome" ] ~docv:"FILE"
           ~doc:
             "Record causal trace events (kernel steps, traps, swaps, link flow edges) in the \
              flight recorder during the run and write them as Chrome trace_event JSON to $(docv) \
              (load in chrome://tracing or Perfetto).")

let write_chrome file =
  write_file file (Sep_obs.Trace.chrome_string ());
  Fmt.pr "wrote %s (%d events)@." file (List.length (Sep_obs.Trace.recorded ()))

let trace_run ((scenario : Scenarios.instance), impl) bugs steps trace_json chrome =
  if chrome <> None then Sep_obs.Trace.set_enabled true;
  let t = Sue.build ~bugs ~impl scenario.cfg in
  let entries = Sep_core.Ktrace.record t ~steps ~inputs:(Scenarios.drip scenario.alphabet) in
  print_string (Sep_core.Ktrace.render entries);
  Option.iter (fun file -> write_file file (Sep_core.Ktrace.to_json entries)) trace_json;
  Option.iter write_chrome chrome;
  0

let trace_cmd =
  let steps = steps_arg 40 "Steps to trace." in
  Cmd.v (Cmd.info "trace" ~doc:"Trace a kernel run: instructions, traps, switches, interrupts.")
    Term.(const trace_run $ scenario_impl_arg $ bugs_arg $ steps $ trace_json_arg $ chrome_arg)

(* -- monitor ------------------------------------------------------------------ *)

let pp_first_violation ppf = function
  | None -> Fmt.string ppf "online monitor: clean (no violation)"
  | Some (step, (f : Separability.failure)) ->
    Fmt.pf ppf "online monitor: condition %d first violated at step %d (colour %s)" f.condition
      step (Sep_model.Colour.name f.colour)

(* one checked-in test/corpus case; a file that cannot be read raises
   Sys_error *)
let read_corpus_case file =
  Result.bind
    (Json.parse (String.trim (In_channel.with_open_bin file In_channel.input_all)))
    Score.corpus_case_of_json

(* The CI smoke: (1) the monitor's report must agree with the offline
   checker on every clean scenario; (2) every checked-in corpus mutant
   must be flagged online, on its recorded condition, with a step
   attribution. *)
let monitor_smoke impl corpus_dir =
  let module F = Sep_check.Fuzz in
  let ok = ref true in
  let agree_clean (sc : Scenarios.instance) =
    let sched = List.init 12 (Scenarios.drip sc.alphabet) in
    let offline = F.check_schedule ~impl ~seed:42 ~alphabet:sc.alphabet sc.cfg sched in
    let online = F.check_schedule_online ~impl ~seed:42 ~alphabet:sc.alphabet sc.cfg sched in
    let r = online.on_report in
    let agree =
      offline.states = r.states && offline.checks = r.checks
      && offline.cond_checks = r.cond_checks
      && Separability.verified offline && Separability.verified r
      && online.on_first_violation = None
    in
    if not agree then ok := false;
    Fmt.pr "  %-12s offline %d states / %d checks, online %d / %d: %s@." sc.label offline.states
      offline.checks r.states r.checks
      (if agree then "agree" else "DISAGREE")
  in
  List.iter
    (fun sc ->
      match unsupported impl sc with
      | None -> agree_clean sc
      | Some reason -> print_skipped sc reason)
    Scenarios.all;
  let replay (c : Score.corpus_case) =
    match Scenarios.find c.cc_scenario with
    | None -> Error ("unknown scenario " ^ c.cc_scenario)
    | Some sc ->
      let online =
        F.check_schedule_online ~bugs:[ c.cc_bug ] ~impl ~scrambles:c.cc_scrambles ~seed:c.cc_seed
          ~alphabet:sc.alphabet sc.cfg c.cc_schedule
      in
      (* detection is the contract; the identity of every failing
         condition is the offline replayer's (both reports cap recorded
         failures, and fill them in different orders) *)
      let caught =
        online.on_first_violation <> None && Separability.failing_conditions online.on_report <> []
      in
      if not caught then ok := false;
      Fmt.pr "  %-24s %a  %s@." (Score.bug_name c.cc_bug) pp_first_violation
        online.on_first_violation
        (if caught then "caught" else "MISSED");
      Ok ()
  in
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Array.iter
      (fun fname ->
        if Filename.check_suffix fname ".json" then
          let file = Filename.concat corpus_dir fname in
          match Result.bind (read_corpus_case file) replay with
          | Ok () -> ()
          | Error msg ->
            ok := false;
            Fmt.epr "rushby: %s: %s@." file msg)
      (Sys.readdir corpus_dir)
  else begin
    ok := false;
    Fmt.epr "rushby: corpus directory %s not found (use --corpus)@." corpus_dir
  end;
  Fmt.pr "monitor smoke: %s@." (if !ok then "OK" else "FAILED");
  exit_of !ok

let monitor_run ((scenario : Scenarios.instance), impl) bugs seed scrambles steps smoke corpus
    chrome =
  if smoke then monitor_smoke impl corpus
  else begin
    if chrome <> None then Sep_obs.Trace.set_enabled true;
    let sched = List.init steps (Scenarios.drip scenario.alphabet) in
    let online =
      Sep_check.Fuzz.check_schedule_online ~bugs ~impl ~scrambles ~seed ~alphabet:scenario.alphabet
        scenario.cfg sched
    in
    Fmt.pr "%a@." Separability.pp_summary online.on_report;
    Fmt.pr "%a@." pp_first_violation online.on_first_violation;
    Option.iter write_chrome chrome;
    exit_of (Separability.verified online.on_report)
  end

let monitor_cmd =
  let steps = steps_arg 24 "Input-schedule length (the kernel then settles)." in
  let smoke =
    smoke_arg
      "CI mode: check online/offline agreement on every clean scenario and online detection \
       of every checked-in corpus mutant."
  in
  let corpus =
    Arg.(value & opt string "test/corpus"
         & info [ "corpus" ] ~docv:"DIR" ~doc:"Mutant corpus directory replayed by --smoke.")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Stream a schedule-driven kernel run through the online separability monitor: the six \
          conditions are checked incrementally as states are produced, so a violation is flagged \
          at the step that first exhibits it.")
    Term.(
      const monitor_run $ scenario_impl_arg $ bugs_arg $ seed_arg $ scrambles_arg $ steps
      $ smoke $ corpus $ chrome_arg)

(* -- stats ------------------------------------------------------------------- *)

let stats_run ((scenario : Scenarios.instance), impl) bugs seed jobs steps json_file =
  let module Telemetry = Sep_obs.Telemetry in
  Sep_obs.Span.set_enabled true;
  let t = Sue.build ~bugs ~impl scenario.cfg in
  let inputs = Scenarios.drip scenario.alphabet in
  for n = 0 to steps - 1 do
    ignore (Sue.step t (inputs n))
  done;
  (* a small parallel walk sample, so the executor counters below reflect
     this machine's sharding/merge behaviour at the requested job count *)
  ignore
    (Sep_core.Randomized.sample_states ~bugs ~impl ~jobs ~params:Sep_core.Randomized.default_params
       ~seed ~inputs:scenario.alphabet scenario.cfg);
  let tel = Sue.telemetry t in
  Fmt.pr "== kernel counters: %s, %d steps, %a kernel ==@.%a@." scenario.label steps Sue.pp_impl
    impl Telemetry.pp tel;
  (* the distributed substrate's line counters alongside the kernel's: one
     reliable-net pipeline under the default lossy link model *)
  let net_steps = min steps 200 in
  let rc = Diff.kernel_vs_reliable_net_case ~seed ~steps:net_steps () in
  Fmt.pr "@.== reliable net (lossy link, %d steps) ==@.  %a  retransmit-queue %d@." net_steps
    Sep_distributed.Net.pp_link_stats rc.rc_stats rc.rc_retransmit_queue;
  Fmt.pr "@.== span profile (seconds) ==@.%a@." Telemetry.pp Sep_obs.Span.registry;
  Fmt.pr "@.== parallel executor (%d jobs) ==@.%a@." jobs Telemetry.pp Sep_par.Par.registry;
  (* the service layer's counters from one clean replicated deployment,
     so retries/timeouts/dedup/shed surface next to the kernel's numbers *)
  let svc_steps = 2500 in
  let svc = Sep_svc.Svc.build ~seed Sep_apps.Fed_services.file_server in
  Sep_svc.Svc.run svc ~steps:svc_steps;
  ignore (Sep_svc.Svc.finish svc);
  let svc_tel = Sep_svc.Svc.telemetry svc in
  Fmt.pr "@.== service layer (fed-fs, %d steps) ==@.%a@." svc_steps Telemetry.pp svc_tel;
  write_records json_file
    [
      record "kernel_counters"
        [
          ("scenario", Json.String scenario.label);
          ("steps", Json.Int steps);
          ("telemetry", Telemetry.to_json tel);
        ];
      record "net_link"
        [
          ("steps", Json.Int net_steps);
          ("delivered", Json.Int rc.rc_delivered);
          ("retransmit_queue", Json.Int rc.rc_retransmit_queue);
          ("stats", Sep_distributed.Net.link_stats_to_json rc.rc_stats);
        ];
      record "svc_counters"
        [
          ("service", Json.String "fed-fs");
          ("steps", Json.Int svc_steps);
          ("telemetry", Telemetry.to_json svc_tel);
        ];
      record "spans" [ ("telemetry", Sep_obs.Span.to_json ()) ];
      record "par"
        [ ("jobs", Json.Int jobs); ("telemetry", Telemetry.to_json Sep_par.Par.registry) ];
    ];
  0

let stats_cmd =
  let steps = steps_arg 2000 "Steps to run." in
  let json_file = json_arg "Also write the counters and spans as JSONL to $(docv)." in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a scenario and print the kernel's telemetry (per-regime counters, span profile) plus \
          the reliable net's link statistics.")
    Term.(const stats_run $ scenario_impl_arg $ bugs_arg $ seed_arg $ jobs_arg $ steps $ json_file)

(* -- metrics ----------------------------------------------------------------- *)

let metrics_run () =
  Fmt.pr "%a@.@.%a@." Sep_core.Metrics.pp_profile
    (Sep_core.Metrics.sue_profile Scenarios.pipeline.cfg)
    Sep_core.Metrics.pp_profile Sep_core.Metrics.conventional_profile;
  0

let metrics_cmd =
  Cmd.v (Cmd.info "metrics" ~doc:"Print the kernel comparison profiles (E2).") Term.(const metrics_run $ const ())

(* -- the campaigns ------------------------------------------------------------ *)

(* One row of a campaign's outcome tally: the subject, padded to [width],
   its case count when [cases], the tally (a campaign without a
   supervisor has no recovered-safe column) and [suffix]; then [detail]
   as a line of its own, and a VIOLATION line naming each violating
   plan. *)
let print_outcomes ?(cases = false) ?(recovered = true) ?(suffix = "") ?detail width label
    outcomes =
  let m, d, r, v = Campaign.tally fst outcomes in
  Fmt.pr "  %-*s %s%3d masked  %3d detected-safe  %s%3d violating%s@." width label
    (if cases then Fmt.str "%3d cases  " (List.length outcomes) else "")
    m d
    (if recovered then Fmt.str "%3d recovered-safe  " r else "")
    v suffix;
  Option.iter (Fmt.pr "%s@.") detail;
  List.iter
    (fun (o, plan) ->
      if o = Campaign.Violating then Fmt.pr "    VIOLATION %a@." Sep_robust.Fault_plan.pp plan)
    outcomes

let print_campaign ~recovered (report : Campaign.report) =
  List.iter
    (fun (sr : Campaign.scenario_report) ->
      print_outcomes ~recovered
        ~suffix:(match sr.watchdog with Some w -> Fmt.str "  (watchdog %d)" w | None -> "")
        16 sr.label
        (List.map (fun (c : Campaign.case) -> (c.outcome, c.plan)) sr.cases))
    report.rp_scenarios

(* -- inject ------------------------------------------------------------------ *)

let inject_run seed jobs steps count smoke json_file =
  let steps, count = if smoke then (60, 12) else (steps, count) in
  let report = Campaign.run ~jobs ~seed ~steps ~count () in
  Fmt.pr "== fault-injection campaign: seed %d, %d steps, %d faults/scenario ==@." seed steps count;
  (* no supervisor, so nothing is ever recovered-safe *)
  print_campaign ~recovered:false report;
  let masked, detected, _, violating = Campaign.totals report in
  let dist = Campaign.run_distributed ~seed ~steps:40 ~count:20 in
  Fmt.pr "  %-16s %3d wire-tamper cases, %d messages hit, contained by construction: %b@."
    "distributed" dist.dr_cases dist.dr_affected dist.dr_contained;
  Fmt.pr "@.totals: %d masked, %d detected-safe, %d separation-violating@." masked detected violating;
  let ok = Campaign.holds report && dist.dr_contained in
  Fmt.pr "fault containment %s@." (if ok then "HOLDS" else "VIOLATED");
  write_jsonl json_file (Campaign.report_lines report @ [ Campaign.dist_to_json dist ]);
  exit_of ok

let inject_cmd =
  let steps = steps_arg 200 "Steps per run." in
  let count = count_arg 40 "Fault plans per scenario." in
  let smoke = smoke_arg "Small deterministic campaign (60 steps, 12 faults/scenario) for CI." in
  let json_file = json_arg "Write the campaign report as JSONL to $(docv)." in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run seeded fault-injection campaigns against every scenario and classify each outcome as \
          masked, detected-safe or separation-violating by differential per-colour trace comparison.")
    Term.(const inject_run $ seed_arg $ jobs_arg $ steps $ count $ smoke $ json_file)

(* -- recover ----------------------------------------------------------------- *)

let recover_run seed jobs steps count smoke drop json_file =
  let steps, count = if smoke then (60, 12) else (steps, count) in
  let cases, net_steps = if smoke then (3, 90) else (6, 150) in
  let r = Diff.recovery ~jobs ~seed ~steps ~count ~drop ~cases ~net_steps () in
  Fmt.pr "== recovery campaign: seed %d, %d steps, %d fault plans/scenario (plus multi-fault) ==@."
    seed steps count;
  print_campaign ~recovered:true r.rv_report;
  let mismatches =
    List.concat_map (fun (rc : Diff.reliable_case) -> rc.rc_mismatches) r.rv_reliable
  in
  let sum f = List.fold_left (fun n (rc : Diff.reliable_case) -> n + f rc) 0 r.rv_reliable in
  Fmt.pr "  %-16s %d cases at %d%% drop: %d delivered, %d retransmits, %d acks, %d mismatch%s@."
    "reliable-net" cases drop
    (sum (fun rc -> rc.rc_delivered))
    (sum (fun rc -> rc.rc_stats.ls_retransmits))
    (sum (fun rc -> rc.rc_stats.ls_acks))
    (List.length mismatches)
    (if List.compare_length_with mismatches 1 = 0 then "" else "es");
  List.iter (Fmt.pr "    MISMATCH %s@.") mismatches;
  let masked, detected, recovered, violating = Campaign.totals r.rv_report in
  Fmt.pr "@.totals: %d masked, %d detected-safe, %d recovered-safe, %d separation-violating@." masked
    detected recovered violating;
  let ok = Diff.recovery_ok r in
  Fmt.pr "fail-operational %s@."
    (if ok then "HOLDS"
     else if violating > 0 then "VIOLATED"
     else if recovered = 0 then "DEGRADED (no fault recovered)"
     else "VIOLATED (reliable-channel differential failed)");
  write_jsonl json_file (Diff.recovery_lines r);
  exit_of ok

let recover_cmd =
  let steps = steps_arg 200 "Steps per run." in
  let count = count_arg 40 "Fault plans per scenario." in
  let smoke = smoke_arg "Small deterministic campaign (60 steps, 12 plans/scenario) for CI." in
  let drop =
    Arg.(value & opt int 10
         & info [ "drop" ] ~doc:"Lossy-link drop rate (percent) for the reliable-net differential.")
  in
  let json_file = json_arg "Write the campaign report as JSONL to $(docv)." in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run the fail-operational campaign: fault-injection (single- and multi-fault plans) under \
          a recovery supervisor that restarts parked regimes from checkpoints and warm-reboots a \
          panicked kernel, classifying each outcome as masked, detected-safe, recovered-safe or \
          separation-violating; then pin the kernel against the reliable-channel distributed ideal \
          over a lossy link.")
    Term.(const recover_run $ seed_arg $ jobs_arg $ steps $ count $ smoke $ drop $ json_file)

(* -- federate ----------------------------------------------------------------- *)

let federate_run seed jobs steps count smoke chaos json_file =
  let module F = Sep_fed.Fed in
  let module FC = Sep_fed.Fed_campaign in
  let steps, count = if smoke then (300, 8) else (steps, count) in
  let specs = Sep_fed.Fed_scenarios.all in
  Fmt.pr "== kernel federation: seed %d, %d steps ==@." seed steps;
  let runs =
    List.map
      (fun (spec : F.spec) ->
        let t = F.build spec in
        F.run t ~steps;
        let ob = F.finish t in
        let mism = List.map (fun (_, _, m) -> m) (Diff.federation_vs_ideal ~steps spec) in
        Fmt.pr
          "  %-10s %d shards  %d links  %d words shard-to-shard  %d node events  ideal-diff %s@."
          spec.fs_label (F.shards t) (F.links t) ob.fob_delivered (List.length ob.fob_events)
          (if mism = [] then "clean" else "MISMATCH");
        List.iter (Fmt.pr "    MISMATCH %s@.") mism;
        (mism = [], F.run_to_json ~steps ~ideal_mismatches:mism spec ob))
      specs
  in
  let ideal_ok = List.for_all fst runs in
  let reports =
    if not chaos then []
    else begin
      Fmt.pr "@.== federated chaos campaign: %d seeded plans/scenario (plus directed) ==@." count;
      List.map
        (fun spec ->
          let r = FC.run ~jobs ~seed ~steps ~count spec in
          print_outcomes ~cases:true
            ~suffix:(Fmt.str "  monitor %s" (if FC.monitor_clean r then "clean" else "VIOLATION"))
            10 r.fr_label
            (List.map (fun (c : FC.case) -> (c.fc_outcome, c.fc_plan)) r.fr_cases);
          r)
        specs
    end
  in
  let ok = ideal_ok && List.for_all (fun r -> FC.holds r && FC.monitor_clean r) reports in
  Fmt.pr "@.federation %s@."
    (if ok then "HOLDS"
     else if not ideal_ok then "VIOLATED (federation diverged from the monolithic ideal)"
     else "VIOLATED");
  write_jsonl json_file (List.map snd runs @ List.concat_map FC.report_lines reports);
  exit_of ok

let federate_cmd =
  let steps = steps_arg 600 "Steps per run." in
  let count = count_arg 10 "Seeded fault plans per scenario." in
  let smoke = smoke_arg "Small deterministic run (300 steps, 8 plans/scenario) for CI." in
  let chaos =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Also run the federated chaos campaign: node crashes, link partitions, frame \
                   tampering and machine faults, classified by differential trace comparison with \
                   the online monitor attached.")
  in
  let json_file = json_arg "Write runs and campaign report as JSONL to $(docv)." in
  Cmd.v
    (Cmd.info "federate"
       ~doc:
         "Run the multi-shard kernel federations (inter-shard channels over reliable links, \
          heartbeat supervision, checkpointed failover) clean against the monolithic ideal, and \
          with --chaos under the node-level fault campaign.")
    Term.(const federate_run $ seed_arg $ jobs_arg $ steps $ count $ smoke $ chaos $ json_file)

(* -- serve ------------------------------------------------------------------- *)

let serve_run seed jobs steps soak smoke soak_mode service json_file chrome =
  let module S = Sep_svc.Svc in
  let module SC = Sep_svc.Svc_campaign in
  if chrome <> None then Sep_obs.Trace.set_enabled true;
  let steps, soak =
    if smoke then (2000, 1) else if soak_mode then (max steps 6000, max soak 6) else (steps, soak)
  in
  let deployments =
    match service with
    | None -> Sep_apps.Fed_services.all
    | Some name -> (
      match Sep_apps.Fed_services.find name with
      | Some d -> [ d ]
      | None ->
        Fmt.epr "rushby: unknown service %s (have: %s)@." name
          (String.concat ", "
             (List.map (fun (d : S.deployment) -> d.dp_name) Sep_apps.Fed_services.all));
        exit 2)
  in
  Fmt.pr "== services over the federation: seed %d, %d steps, %d soak plans ==@." seed steps soak;
  let reports =
    List.map
      (fun dep ->
        let r = SC.run ~jobs ~seed ~steps ~soak dep in
        let sum f = List.fold_left (fun acc (c : SC.case) -> acc + f c) 0 r.sv_cases in
        let detail =
          Fmt.str
            "            %5d requests  %4d committed  %4d retries  %4d dedup-hits  %4d shed  \
             contract %s  monitor %s"
            (sum (fun c -> c.sc_contract.ct_requests))
            (sum (fun c -> c.sc_contract.ct_committed))
            (sum (fun c -> c.sc_retries))
            (sum (fun c -> c.sc_dedup_hits))
            (sum (fun c -> c.sc_shed))
            (if SC.contracts_ok r then "ok" else "BROKEN")
            (if SC.monitor_clean r then "clean" else "VIOLATION")
        in
        print_outcomes ~cases:true ~detail 9 r.sv_name
          (List.map (fun (c : SC.case) -> (c.sc_outcome, c.sc_plan)) r.sv_cases);
        r)
      deployments
  in
  let ok = List.for_all (fun r -> SC.holds r && SC.monitor_clean r) reports in
  Fmt.pr "@.service contract %s@."
    (if ok then "HOLDS (every accepted request: exactly-once effect or definite failure)"
     else "VIOLATED");
  write_jsonl json_file (List.concat_map SC.report_lines reports);
  Option.iter write_chrome chrome;
  exit_of ok

let serve_cmd =
  let steps = steps_arg 5000 "Service steps per case." in
  let soak = count_arg 6 "Seeded soak plans per service (plus directed)." in
  let smoke = smoke_arg "Small deterministic run (2000 steps, 1 soak plan/service) for CI." in
  let soak_mode =
    Arg.(value & flag
         & info [ "soak" ]
             ~doc:"Sustained-chaos mode: at least 6000 steps and 6 soak storms per service.")
  in
  let service =
    Arg.(value & opt (some string) None
         & info [ "service" ] ~docv:"NAME"
             ~doc:"Run a single deployment (fed-fs, fed-print, fed-auth, fed-guard).")
  in
  let json_file = json_arg "Write campaign reports as JSONL to $(docv)." in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Deploy the \u{00a7}6 services (MLS file server, printer, authentication, ACCAT Guard) \
          as replicated request/response applications over the kernel federation, and verify the \
          end-to-end contract — every accepted request commits exactly once or fails definitely — \
          under directed strikes and sustained chaos soaks with the online separability monitor \
          attached.")
    Term.(
      const serve_run $ seed_arg $ jobs_arg $ steps $ soak $ smoke $ soak_mode $ service
      $ json_file $ chrome_arg)

(* -- fuzz -------------------------------------------------------------------- *)

let fuzz_corpus_emit dir seed impl =
  graceful_write @@ fun () ->
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ok = ref true in
  List.iter
    (fun (e : Sep_core.Mutants.expectation) ->
      match Score.corpus_case ~impl ~seed e with
      | None ->
        ok := false;
        Fmt.epr "rushby: no corpus case found for %s@." (Score.bug_name e.bug)
      | Some c -> (
        match Score.replay_corpus_case ~impl c with
        | Error msg ->
          ok := false;
          Fmt.epr "rushby: %s@." msg
        | Ok () ->
          let file = Filename.concat dir (Score.bug_name e.bug ^ ".json") in
          write_file file (Sep_obs.Sink.jsonl [ Score.corpus_case_to_json c ]);
          Fmt.pr "wrote %s (condition %d, %d-step schedule)@." file c.cc_condition
            (List.length c.cc_schedule)))
    Sep_core.Mutants.catalogue;
  exit_of !ok

let fuzz_full smoke seed jobs budget impl json_file =
  let budget = if smoke then 40 else budget in
  let runnable, skipped =
    List.partition_map
      (fun sc ->
        match unsupported impl sc with None -> Either.Left sc | Some reason -> Right (sc, reason))
      Scenarios.all
  in
  let c = Score.campaign ~impl ~jobs ~seed ~budget runnable in
  Fmt.pr "== coverage-guided fuzz: seed %d, budget %d execs/scenario, %a kernel ==@." seed budget
    Sue.pp_impl impl;
  List.iter
    (fun (r : Sep_check.Fuzz.scenario_result) ->
      Fmt.pr "  %-12s %3d execs  %2d corpus  %3d coverage keys  %d failure%s@." r.sr_label
        r.sr_campaign.cp_execs
        (List.length r.sr_campaign.cp_entries)
        (List.length r.sr_campaign.cp_keys)
        (List.length r.sr_failures)
        (if List.compare_length_with r.sr_failures 1 = 0 then "" else "s"))
    c.cg_results;
  List.iter (fun (sc, reason) -> print_skipped sc reason) skipped;
  let table =
    Sep_util.Table.create ~title:"Mutant kill rate per strategy"
      ~columns:[ "bug"; "scenario"; "strategy"; "killed"; "cond"; "states"; "checks"; "execs"; "instrs" ]
  in
  List.iter
    (fun (k : Score.kill) ->
      Sep_util.Table.add_row table
        [
          Score.bug_name k.kl_bug;
          k.kl_scenario;
          Score.strategy_name k.kl_strategy;
          (if k.kl_detected then "yes" else "NO");
          string_of_int k.kl_condition;
          string_of_int k.kl_states;
          string_of_int k.kl_checks;
          string_of_int k.kl_execs;
          (match k.kl_workload with
          | None -> "-"
          | Some w -> string_of_int (Score.workload_instrs w));
        ])
    c.cg_kills;
  Sep_util.Table.print table;
  let clean = Score.clean c and all_killed = Score.all_killed c and minimal = Score.minimal c in
  Fmt.pr "@.correct kernel: %s;  mutants: %s;  counterexamples: %s@."
    (if clean then "all conditions and solo isolation hold on every corpus member"
     else "CONDITION OR ISOLATION FAILURES FOUND")
    (if all_killed then "all killed under every strategy" else "SOME SURVIVED")
    (if minimal then "all killing workloads within 10 instructions" else "SOME ABOVE 10 INSTRUCTIONS");
  write_jsonl json_file (Score.campaign_lines c);
  exit_of (clean && all_killed && minimal)

(* replay one checked-in test/corpus case: the fixed kernel must verify
   under its schedule AND the seeded bug must still fail the recorded
   condition — the CI regression step *)
let fuzz_replay_corpus impl file =
  graceful_write @@ fun () ->
  let ( let* ) = Result.bind in
  let outcome =
    let* c = read_corpus_case file in
    let* () = Score.replay_corpus_case ~impl c in
    Ok c
  in
  match outcome with
  | Ok c ->
    Fmt.pr "%s: %s condition %d still killed@." file (Score.bug_name c.cc_bug) c.cc_condition;
    0
  | Error msg ->
    Fmt.epr "rushby: %s: %s@." file msg;
    1

let fuzz_run smoke seed jobs budget json_file replay_corpus impl emit_corpus =
  match (emit_corpus, replay_corpus) with
  | Some dir, _ -> fuzz_corpus_emit dir seed impl
  | None, Some file -> fuzz_replay_corpus impl file
  | None, None -> fuzz_full smoke seed jobs budget impl json_file

let fuzz_cmd =
  let budget =
    Arg.(value & opt int 480 & info [ "budget" ] ~doc:"Fuzz executions per scenario and per mutant.")
  in
  let smoke = smoke_arg "Small deterministic budget (40 execs) for CI." in
  let json_file = json_arg "Write corpus, kill table and summary as JSONL to $(docv)." in
  let emit_corpus =
    Arg.(value & opt (some string) None
         & info [ "emit-corpus" ] ~docv:"DIR"
             ~doc:"Regenerate the per-bug regression corpus (test/corpus) into $(docv) and exit.")
  in
  let replay_corpus =
    Arg.(value & opt (some string) None
         & info [ "replay-corpus" ] ~docv:"FILE"
             ~doc:"Replay one checked-in corpus case (a test/corpus JSON file): verify the fixed \
                   kernel under its schedule and confirm the seeded bug still fails the recorded \
                   condition.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided fuzzing of the six conditions: fuzz every scenario on the correct kernel \
          (kstats counters and trace events as coverage signal, solo isolation on each corpus \
          member), then score how fast exhaustive, randomized and coverage-guided checking kill \
          each seeded kernel bug, shrinking killing workloads to minimal programs.")
    Term.(
      const fuzz_run $ smoke $ seed_arg $ jobs_arg $ budget $ json_file $ replay_corpus $ impl_arg
      $ emit_corpus)

(* -- refine ------------------------------------------------------------------ *)

let refine_replay seed bug =
  let module Stack = Sep_refine.Stack in
  match bug with
  | None ->
    Fmt.epr "rushby: --replay needs --bug (one of: %s)@." (String.concat ", " Stack.known_bugs);
    1
  | Some bug -> (
    match Stack.replay ~seed ~bug with
    | Error msg ->
      Fmt.epr "rushby: %s@." msg;
      1
    | Ok None ->
      Fmt.pr "seed %d does not expose %s: the stack stays in lockstep@." seed bug;
      0
    | Ok (Some k) ->
      Fmt.pr "seed %d diverges %s at step %d (%s, workload %d -> %d in %d shrinks)@." seed k.k_bug
        k.k_step k.k_scenario k.k_original_size k.k_shrunk_size k.k_shrink_steps;
      1)

let refine_full smoke seed jobs json_file =
  let module Stack = Sep_refine.Stack in
  let r = Stack.run ~jobs ~smoke ~seed () in
  let divergences = Stack.divergences r and killed = Stack.killed r in
  Fmt.pr "== refinement stack: seed %d, %d scenario runs, %d machine + %d stack workloads ==@." seed
    (List.length r.rp_scenarios) (List.length r.rp_machines) (List.length r.rp_stacks);
  Fmt.pr "  lockstep: %d commuting-square checks, %d divergence%s@." (Stack.checks r)
    (List.length divergences)
    (if List.compare_length_with divergences 1 = 0 then "" else "s");
  List.iter
    (fun (label, d) -> Fmt.pr "    DIVERGED %s: %a@." label Stack.pp_divergence d)
    divergences;
  Fmt.pr "  kills: %d/%d seeded bugs caught@." (List.length killed) (List.length r.rp_kills);
  List.iter
    (fun (k : Stack.kill) ->
      if k.k_killed then
        Fmt.pr "    %-26s %-13s step %-3d  %2d -> %2d  (%s)@." k.k_bug k.k_scenario k.k_step
          k.k_original_size k.k_shrunk_size (Stack.replay_command k)
      else Fmt.pr "    %-26s SURVIVED@." k.k_bug)
    r.rp_kills;
  Fmt.pr "refinement %s@." (if Stack.holds r then "HOLDS" else "VIOLATED");
  write_jsonl json_file (Stack.report_lines r);
  exit_of (Stack.holds r)

let refine_run smoke seed jobs json_file replay bug =
  match replay with
  | Some rseed -> refine_replay rseed bug
  | None -> refine_full smoke seed jobs json_file

let refine_cmd =
  let smoke = smoke_arg "Small deterministic budgets (one schedule per scenario) for CI." in
  let json_file =
    json_arg "Write scenario runs, workload runs, kill table and summary as JSONL to $(docv)."
  in
  let replay =
    Arg.(value & opt (some int) None
         & info [ "replay" ] ~docv:"SEED"
             ~doc:"Replay one detection attempt (with --bug) and exit 1 iff it diverges.")
  in
  let bug =
    Arg.(value & opt (some string) None
         & info [ "bug" ] ~docv:"NAME" ~doc:"Seeded bug name for --replay.")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Prove the three-level refinement in lockstep: an abstract per-colour specification above \
          the Sue machine kernel (via the abstraction functions, one commuting square per \
          instruction) and a behavioural specification above the regime kernel (one square per \
          rotation), tied across levels by Kahn-network word streams on shared workloads; then \
          race every seeded kernel bug against the stack, shrinking each divergence to a minimal \
          replayable workload.")
    Term.(const refine_run $ smoke $ seed_arg $ jobs_arg $ json_file $ replay $ bug)

(* -- experiment --------------------------------------------------------------- *)

let experiment_cmd =
  let names =
    Arg.(value & pos_all (enum Experiment.all) []
         & info [] ~docv:"NAME"
             ~doc:(Fmt.str "Experiments to print (default: all): %s."
                     (String.concat ", " (List.map fst Experiment.all))))
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Print the tables of the EXPERIMENTS.md experiments that no other subcommand prints. \
          Every number depends only on the source tree.")
    Term.(const Experiment.run $ names)

let main_cmd =
  let doc = "reproduction of Rushby's separation kernel and Proof of Separability (SOSP 1981)" in
  Cmd.group (Cmd.info "rushby" ~version:"1.0.0" ~doc)
    [
      verify_cmd;
      verify_random_cmd;
      mutants_cmd;
      ifa_cmd;
      snfe_cmd;
      bandwidth_cmd;
      guard_cmd;
      mls_cmd;
      spooler_cmd;
      dot_cmd;
      trace_cmd;
      monitor_cmd;
      stats_cmd;
      metrics_cmd;
      inject_cmd;
      recover_cmd;
      federate_cmd;
      serve_cmd;
      fuzz_cmd;
      refine_cmd;
      experiment_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
