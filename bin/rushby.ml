(* rushby: command-line front end to the separation-kernel reproduction.

   One subcommand per activity: verifying kernels (exhaustively or by
   randomized sampling), running the IFA baseline, driving the SNFE, the
   Guard and the MLS system, measuring covert bandwidth, printing the
   kernel-comparison metrics, and printing the EXPERIMENTS.md tables that
   no other subcommand prints (experiment.ml). *)

open Cmdliner

let scenario_of_string = function
  | "pipeline" -> Ok Sep_core.Scenarios.pipeline
  | "interrupt" -> Ok Sep_core.Scenarios.interrupt
  | "snfe-micro" -> Ok Sep_core.Scenarios.snfe_micro
  | "preemptive" -> Ok Sep_core.Scenarios.preemptive
  | s -> Error (`Msg ("unknown scenario " ^ s ^ " (pipeline|interrupt|snfe-micro|preemptive)"))

let scenario_conv = Arg.conv (scenario_of_string, fun ppf i -> Fmt.string ppf i.Sep_core.Scenarios.label)

let bug_of_string s =
  let matching b = Fmt.str "%a" Sep_core.Sue.pp_bug b = s in
  match List.find_opt matching Sep_core.Sue.all_bugs with
  | Some b -> Ok b
  | None ->
    Error
      (`Msg
         (Fmt.str "unknown bug %s (one of: %a)" s
            Fmt.(list ~sep:(any ", ") Sep_core.Sue.pp_bug)
            Sep_core.Sue.all_bugs))

let bug_conv = Arg.conv (bug_of_string, Sep_core.Sue.pp_bug)

let scenario_arg =
  Arg.(value & opt scenario_conv Sep_core.Scenarios.pipeline & info [ "scenario" ] ~doc:"Scenario: pipeline, interrupt, snfe-micro or preemptive.")

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
    | "microcode" -> Ok Sep_core.Sue.Microcode
    | "assembly" | "asm" -> Ok Sep_core.Sue.Assembly
    | other -> Error (`Msg ("unknown kernel implementation " ^ other))
  in
  let impl_conv = Arg.conv (impl_of_string, Sep_core.Sue.pp_impl) in
  Arg.(value & opt impl_conv Sep_core.Sue.Microcode
       & info [ "impl" ] ~doc:"Kernel implementation: microcode or assembly (machine code).")

(* [Some reason] when the kernel implementation cannot run the scenario.
   [Sue.build]'s own validation is the one statement of what each kernel
   supports (the assembly kernel has no preemption quantum). *)
let unsupported impl (sc : Sep_core.Scenarios.instance) =
  match Sep_core.Sue.build ~impl sc.Sep_core.Scenarios.cfg with
  | _ -> None
  | exception Invalid_argument reason -> Some reason

(* Whole-catalogue modes skip the scenarios the kernel cannot run. *)
let print_skipped (sc : Sep_core.Scenarios.instance) reason =
  Fmt.pr "  %-12s skipped: %s@." sc.Sep_core.Scenarios.label reason

(* --scenario and --impl together: a combination the kernel cannot run is
   a usage error, reported once here for every subcommand taking both *)
let scenario_impl_arg =
  let check scenario impl =
    match unsupported impl scenario with
    | None -> (scenario, impl)
    | Some reason ->
      Fmt.epr "rushby: scenario %s does not run on the %a kernel: %s@."
        scenario.Sep_core.Scenarios.label Sep_core.Sue.pp_impl impl reason;
      exit 2
  in
  Term.(const check $ scenario_arg $ impl_arg)

let trace_json_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-json" ] ~docv:"FILE"
           ~doc:"Also write a machine-readable JSONL record of the run to $(docv).")

(* a bad --trace-json/--json path is a usage problem, not an internal error *)
let graceful_write f = try f () with Sys_error msg -> Fmt.epr "rushby: %s@." msg; exit 1

(* a --json report: [emit_all] hands every line to one Sep_obs.Sink *)
let write_jsonl file emit_all =
  graceful_write (fun () ->
      Sep_obs.Sink.with_file file (fun sink -> emit_all (Sep_obs.Sink.emit sink)));
  Fmt.pr "wrote %s@." file

let emit_json_record file ~kernel_counters report =
  graceful_write @@ fun () ->
  Sep_obs.Sink.with_file file (fun sink ->
      Sep_obs.Sink.emit sink
        (Sep_util.Json.Obj
           [
             ("kind", Sep_util.Json.String "report");
             ("report", Sep_core.Separability.report_to_json report);
           ]);
      (match kernel_counters with
      | None -> ()
      | Some tel ->
        Sep_obs.Sink.emit sink
          (Sep_util.Json.Obj
             [
               ("kind", Sep_util.Json.String "kernel_counters");
               ("telemetry", Sep_obs.Telemetry.to_json tel);
             ]));
      Sep_obs.Sink.emit sink
        (Sep_util.Json.Obj
           [ ("kind", Sep_util.Json.String "spans"); ("telemetry", Sep_obs.Span.to_json ()) ]))

(* -- verify ---------------------------------------------------------------- *)

let verify_run (scenario, impl) bugs uncut trace_json =
  if trace_json <> None then Sep_obs.Span.set_enabled true;
  let cfg =
    if uncut then Sep_core.Config.cut_none scenario.Sep_core.Scenarios.cfg
    else scenario.Sep_core.Scenarios.cfg
  in
  let sys = Sep_core.Sue.to_system ~bugs ~impl ~inputs:scenario.Sep_core.Scenarios.alphabet cfg in
  let report = Sep_core.Separability.check sys in
  Fmt.pr "%a@." Sep_core.Separability.pp_report report;
  (match trace_json with
  | None -> ()
  | Some file ->
    (* the exploration's kernel counters accumulate in the system's shared
       initial instance: they count the search's own work, one INPUT per
       state and input and one NEXTOP per post-INPUT class, plus the
       operations condition 1 runs in states that are never post-INPUT *)
    let kernel_counters =
      match sys.Sep_model.System.initial with
      | t0 :: _ -> Some (Sep_core.Sue.telemetry t0)
      | [] -> None
    in
    emit_json_record file ~kernel_counters report);
  if Sep_core.Separability.verified report then 0 else 1

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
   instead of the raw sampled-run dump, plus the one-line replay. *)
let print_minimized scenario bugs impl seed params conditions =
  let minimized =
    Sep_check.Score.minimize_randomized ~bugs ~impl ~params ~seed
      ~inputs:scenario.Sep_core.Scenarios.alphabet ~conditions scenario.Sep_core.Scenarios.cfg
  in
  List.iter
    (fun (m : Sep_check.Score.minimized) ->
      Fmt.pr
        "minimized counterexample (condition%s %s): %d-step schedule %a  [check seed %d, %d \
         scrambles, %d shrink steps]@."
        (if List.compare_length_with m.mz_conditions 1 > 0 then "s" else "")
        (String.concat "," (List.map string_of_int m.mz_conditions))
        (List.length m.mz_schedule) pp_schedule m.mz_schedule m.mz_seed m.mz_scrambles
        m.mz_shrink_steps)
    minimized;
  let reproduced c =
    List.exists (fun (m : Sep_check.Score.minimized) -> List.mem c m.mz_conditions) minimized
  in
  (match List.filter (fun c -> not (reproduced c)) conditions with
  | [] -> ()
  | missing ->
    Fmt.pr "condition%s %s: no standalone schedule found; rerun with --trace-json for the full run@."
      (if List.compare_length_with missing 1 > 0 then "s" else "")
      (String.concat "," (List.map string_of_int missing)));
  Fmt.pr "replay: rushby fuzz --replay %d --scenario %s%s%s --walks %d --len %d --scrambles %d@."
    seed scenario.Sep_core.Scenarios.label
    (String.concat ""
       (List.map (fun b -> Fmt.str " --bug %a" Sep_core.Sue.pp_bug b) bugs))
    (match impl with Sep_core.Sue.Assembly -> " --impl assembly" | Sep_core.Sue.Microcode -> "")
    params.Sep_core.Randomized.walks params.Sep_core.Randomized.walk_len
    params.Sep_core.Randomized.scrambles

let verify_random_run (scenario, impl) bugs seed jobs walks walk_len scrambles trace_json =
  if trace_json <> None then Sep_obs.Span.set_enabled true;
  let params = { Sep_core.Randomized.walks; walk_len; scrambles } in
  let report =
    Sep_core.Randomized.check ~bugs ~impl ~jobs ~params ~seed
      ~inputs:scenario.Sep_core.Scenarios.alphabet scenario.Sep_core.Scenarios.cfg
  in
  (if Sep_core.Separability.verified report then Fmt.pr "%a@." Sep_core.Separability.pp_report report
   else begin
     Fmt.pr "%a@." Sep_core.Separability.pp_summary report;
     print_minimized scenario bugs impl seed params
       (Sep_core.Separability.failing_conditions report)
   end);
  (match trace_json with
  | None -> ()
  | Some file -> emit_json_record file ~kernel_counters:None report);
  if Sep_core.Separability.verified report then 0 else 1

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
          Fmt.str "%a" Sep_core.Sue.pp_bug e.bug;
          e.scenario.Sep_core.Scenarios.label;
          string_of_int e.primary;
          String.concat "," (List.map string_of_int (Sep_core.Separability.failing_conditions report));
          (if caught then "yes" else "NO");
        ])
    Sep_core.Mutants.catalogue;
  Sep_util.Table.print table;
  if !all_caught then 0 else 1

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
  Fmt.pr "@[<v>network saw:@,%a@,host saw:@,%a@,cleartext leaks: %d@]@."
    Fmt.(list ~sep:cut (fun ppf s -> Fmt.pf ppf "  %s" s))
    r.Sep_snfe.Snfe.net_packets
    Fmt.(list ~sep:cut (fun ppf s -> Fmt.pf ppf "  %s" s))
    r.Sep_snfe.Snfe.host_packets
    (List.length r.Sep_snfe.Snfe.cleartext_on_net);
  if r.Sep_snfe.Snfe.cleartext_on_net = [] then 0 else 1

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
        [
          Fmt.str "%a" Sep_components.Covert.pp_vector vector;
          cell Sep_components.Censor.Off;
          cell Sep_components.Censor.Basic;
          cell Sep_components.Censor.Strict;
        ])
    [ Sep_components.Covert.Pad_field; Sep_components.Covert.Length_raw; Sep_components.Covert.Length_bucket ];
  Sep_util.Table.print table;
  0

let bandwidth_cmd =
  let messages = Arg.(value & opt int 200 & info [ "messages" ] ~doc:"Covert messages to send.") in
  Cmd.v (Cmd.info "bandwidth" ~doc:"Measure covert bandwidth through the SNFE bypass (E6).")
    Term.(const bandwidth_run $ messages $ seed_arg)

(* -- guard / mls / spooler --------------------------------------------------- *)

let guard_run kind =
  let r = Sep_apps.Guard_app.run kind Sep_apps.Guard_app.demo_script in
  Fmt.pr "@[<v>HIGH screen: %a@,LOW screen: %a@,officer saw %d reviews@,%d up, %d reviewed, %d released, %d denied@]@."
    Fmt.(Dump.list string)
    r.Sep_apps.Guard_app.high_screen
    Fmt.(Dump.list string)
    r.Sep_apps.Guard_app.low_screen
    (List.length r.Sep_apps.Guard_app.officer_screen)
    r.Sep_apps.Guard_app.stats.Sep_components.Guard.passed_up
    r.Sep_apps.Guard_app.stats.Sep_components.Guard.reviewed
    r.Sep_apps.Guard_app.stats.Sep_components.Guard.released
    r.Sep_apps.Guard_app.stats.Sep_components.Guard.denied;
  0

let guard_cmd = Cmd.v (Cmd.info "guard" ~doc:"Run the ACCAT Guard demo.") Term.(const guard_run $ kind_arg)

let mls_run kind =
  let r = Sep_apps.Mls.run kind Sep_apps.Mls.demo_script in
  List.iter
    (fun (c, lines) ->
      Fmt.pr "== %s ==@." (Sep_model.Colour.name c);
      List.iter (Fmt.pr "  %s@.") lines)
    r.Sep_apps.Mls.screens;
  Fmt.pr "== printer ==@.";
  List.iter (Fmt.pr "  %s@.") r.Sep_apps.Mls.printer_output;
  Fmt.pr "spool files left: %a@." Fmt.(Dump.list string) r.Sep_apps.Mls.spool_files_left;
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
  let topo =
    match which with
    | "snfe" -> Sep_snfe.Snfe.topology Sep_snfe.Snfe.default_config
    | "mls" -> Sep_apps.Mls.topology ()
    | "guard" -> Sep_apps.Guard_app.topology ()
    | other ->
      Fmt.epr "unknown system %s (snfe|mls|guard)@." other;
      exit 1
  in
  let highlight =
    match which with
    | "snfe" -> [ Sep_snfe.Snfe.censor_tx; Sep_snfe.Snfe.censor_rx; Sep_snfe.Snfe.crypto_tx; Sep_snfe.Snfe.crypto_rx ]
    | "mls" -> [ Sep_apps.Mls.file_server; Sep_apps.Mls.printer; Sep_apps.Mls.auth ]
    | _ -> [ Sep_apps.Guard_app.guard ]
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
  graceful_write @@ fun () ->
  let oc = open_out file in
  output_string oc (Sep_obs.Trace.chrome_string ());
  close_out oc;
  Fmt.pr "wrote %s (%d events)@." file (List.length (Sep_obs.Trace.recorded ()))

let trace_run (scenario, impl) bugs steps trace_json chrome =
  if chrome <> None then Sep_obs.Trace.set_enabled true;
  let t = Sep_core.Sue.build ~bugs ~impl scenario.Sep_core.Scenarios.cfg in
  let inputs = Sep_core.Scenarios.drip scenario.Sep_core.Scenarios.alphabet in
  let entries = Sep_core.Ktrace.record t ~steps ~inputs in
  print_string (Sep_core.Ktrace.render entries);
  (match trace_json with
  | None -> ()
  | Some file ->
    graceful_write @@ fun () ->
    let oc = open_out file in
    output_string oc (Sep_core.Ktrace.to_json entries);
    close_out oc);
  (match chrome with None -> () | Some file -> write_chrome file);
  0

let trace_cmd =
  let steps = steps_arg 40 "Steps to trace." in
  Cmd.v (Cmd.info "trace" ~doc:"Trace a kernel run: instructions, traps, switches, interrupts.")
    Term.(const trace_run $ scenario_impl_arg $ bugs_arg $ steps $ trace_json_arg $ chrome_arg)

(* -- monitor ------------------------------------------------------------------ *)

let pp_first_violation ppf = function
  | None -> Fmt.string ppf "online monitor: clean (no violation)"
  | Some (step, (f : Sep_core.Separability.failure)) ->
    Fmt.pf ppf "online monitor: condition %d first violated at step %d (colour %s)"
      f.Sep_core.Separability.condition step (Sep_model.Colour.name f.Sep_core.Separability.colour)

(* The CI smoke: (1) the monitor's report must agree with the offline
   checker on every clean scenario; (2) every checked-in corpus mutant
   must be flagged online, on its recorded condition, with a step
   attribution. *)
let monitor_smoke impl corpus_dir =
  let module S = Sep_core.Separability in
  let module F = Sep_check.Fuzz in
  let ok = ref true in
  let agree_clean (sc : Sep_core.Scenarios.instance) =
    let sched = List.init 12 (Sep_core.Scenarios.drip sc.Sep_core.Scenarios.alphabet) in
    let offline =
      F.check_schedule ~impl ~seed:42 ~alphabet:sc.Sep_core.Scenarios.alphabet
        sc.Sep_core.Scenarios.cfg sched
    in
    let online =
      F.check_schedule_online ~impl ~seed:42 ~alphabet:sc.Sep_core.Scenarios.alphabet
        sc.Sep_core.Scenarios.cfg sched
    in
    let r = online.F.on_report in
    let agree =
      offline.S.states = r.S.states && offline.S.checks = r.S.checks
      && offline.S.cond_checks = r.S.cond_checks
      && S.verified offline && S.verified r
      && online.F.on_first_violation = None
    in
    if not agree then ok := false;
    Fmt.pr "  %-12s offline %d states / %d checks, online %d / %d: %s@."
      sc.Sep_core.Scenarios.label offline.S.states offline.S.checks r.S.states r.S.checks
      (if agree then "agree" else "DISAGREE")
  in
  List.iter
    (fun sc ->
      match unsupported impl sc with
      | None -> agree_clean sc
      | Some reason -> print_skipped sc reason)
    Sep_core.Scenarios.all;
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Array.iter
      (fun fname ->
        if Filename.check_suffix fname ".json" then begin
          let file = Filename.concat corpus_dir fname in
          let ic = open_in file in
          let contents = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match
            Result.bind (Sep_util.Json.parse (String.trim contents))
              Sep_check.Score.corpus_case_of_json
          with
          | Error msg ->
            ok := false;
            Fmt.epr "rushby: %s: %s@." file msg
          | Ok c -> (
            match Sep_core.Scenarios.find c.Sep_check.Score.cc_scenario with
            | None ->
              ok := false;
              Fmt.epr "rushby: %s: unknown scenario %s@." file c.Sep_check.Score.cc_scenario
            | Some sc ->
              let online =
                F.check_schedule_online ~bugs:[ c.Sep_check.Score.cc_bug ] ~impl
                  ~scrambles:c.Sep_check.Score.cc_scrambles ~seed:c.Sep_check.Score.cc_seed
                  ~alphabet:sc.Sep_core.Scenarios.alphabet sc.Sep_core.Scenarios.cfg
                  c.Sep_check.Score.cc_schedule
              in
              (* detection is the contract; the identity of every failing
                 condition is the offline replayer's (both reports cap
                 recorded failures, and fill them in different orders) *)
              let caught =
                online.F.on_first_violation <> None
                && S.failing_conditions online.F.on_report <> []
              in
              if not caught then ok := false;
              Fmt.pr "  %-24s %a  %s@."
                (Fmt.str "%a" Sep_core.Sue.pp_bug c.Sep_check.Score.cc_bug)
                pp_first_violation online.F.on_first_violation
                (if caught then "caught" else "MISSED"))
        end)
      (Sys.readdir corpus_dir)
  else begin
    ok := false;
    Fmt.epr "rushby: corpus directory %s not found (use --corpus)@." corpus_dir
  end;
  Fmt.pr "monitor smoke: %s@." (if !ok then "OK" else "FAILED");
  if !ok then 0 else 1

let monitor_run (scenario, impl) bugs seed scrambles steps smoke corpus chrome =
  if smoke then monitor_smoke impl corpus
  else begin
    if chrome <> None then Sep_obs.Trace.set_enabled true;
    let sched = List.init steps (Sep_core.Scenarios.drip scenario.Sep_core.Scenarios.alphabet) in
    let online =
      Sep_check.Fuzz.check_schedule_online ~bugs ~impl ~scrambles ~seed
        ~alphabet:scenario.Sep_core.Scenarios.alphabet scenario.Sep_core.Scenarios.cfg sched
    in
    Fmt.pr "%a@." Sep_core.Separability.pp_summary online.Sep_check.Fuzz.on_report;
    Fmt.pr "%a@." pp_first_violation online.Sep_check.Fuzz.on_first_violation;
    (match chrome with None -> () | Some file -> write_chrome file);
    if Sep_core.Separability.verified online.Sep_check.Fuzz.on_report then 0 else 1
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

let link_stats_json (s : Sep_distributed.Net.link_stats) =
  Sep_util.Json.Obj
    [
      ("in_flight", Sep_util.Json.Int s.ls_in_flight);
      ("drops", Sep_util.Json.Int s.ls_drops);
      ("lossy_drops", Sep_util.Json.Int s.ls_lossy_drops);
      ("retransmits", Sep_util.Json.Int s.ls_retransmits);
      ("acks", Sep_util.Json.Int s.ls_acks);
      ("backoff_ceiling", Sep_util.Json.Int s.ls_backoff_ceiling);
      ("partition_drops", Sep_util.Json.Int s.ls_partition_drops);
    ]

let pp_link_stats ppf (s : Sep_distributed.Net.link_stats) =
  Fmt.pf ppf
    "in-flight %d  drops %d  lossy-drops %d  retransmits %d  acks %d  backoff-ceiling %d  \
     partition-drops %d"
    s.ls_in_flight s.ls_drops s.ls_lossy_drops s.ls_retransmits s.ls_acks s.ls_backoff_ceiling
    s.ls_partition_drops

let stats_run (scenario, impl) bugs seed jobs steps json_file =
  Sep_obs.Span.set_enabled true;
  let t = Sep_core.Sue.build ~bugs ~impl scenario.Sep_core.Scenarios.cfg in
  let inputs = Sep_core.Scenarios.drip scenario.Sep_core.Scenarios.alphabet in
  for n = 0 to steps - 1 do
    ignore (Sep_core.Sue.step t (inputs n))
  done;
  (* a small parallel walk sample, so the executor counters below reflect
     this machine's sharding/merge behaviour at the requested job count *)
  ignore
    (Sep_core.Randomized.sample_states ~bugs ~impl ~jobs
       ~params:Sep_core.Randomized.default_params ~seed
       ~inputs:scenario.Sep_core.Scenarios.alphabet scenario.Sep_core.Scenarios.cfg);
  let tel = Sep_core.Sue.telemetry t in
  Fmt.pr "== kernel counters: %s, %d steps, %a kernel ==@.%a@."
    scenario.Sep_core.Scenarios.label steps Sep_core.Sue.pp_impl impl Sep_obs.Telemetry.pp tel;
  (* the distributed substrate's line counters alongside the kernel's: one
     reliable-net pipeline under the default lossy link model *)
  let net_steps = min steps 200 in
  let rc = Sep_check.Diff.kernel_vs_reliable_net_case ~seed ~steps:net_steps () in
  Fmt.pr "@.== reliable net (lossy link, %d steps) ==@.  %a  retransmit-queue %d@." net_steps
    pp_link_stats rc.Sep_check.Diff.rc_stats rc.Sep_check.Diff.rc_retransmit_queue;
  Fmt.pr "@.== span profile (seconds) ==@.%a@." Sep_obs.Telemetry.pp Sep_obs.Span.registry;
  Fmt.pr "@.== parallel executor (%d jobs) ==@.%a@." jobs Sep_obs.Telemetry.pp
    Sep_par.Par.registry;
  (* the service layer's counters from one clean replicated deployment,
     so retries/timeouts/dedup/shed surface next to the kernel's numbers *)
  let svc_steps = 2500 in
  let svc = Sep_svc.Svc.build ~seed Sep_apps.Fed_services.file_server in
  Sep_svc.Svc.run svc ~steps:svc_steps;
  ignore (Sep_svc.Svc.finish svc);
  let svc_tel = Sep_svc.Svc.telemetry svc in
  Fmt.pr "@.== service layer (fed-fs, %d steps) ==@.%a@." svc_steps Sep_obs.Telemetry.pp svc_tel;
  (match json_file with
  | None -> ()
  | Some file ->
    graceful_write @@ fun () ->
    Sep_obs.Sink.with_file file (fun sink ->
        Sep_obs.Sink.emit sink
          (Sep_util.Json.Obj
             [
               ("kind", Sep_util.Json.String "kernel_counters");
               ("scenario", Sep_util.Json.String scenario.Sep_core.Scenarios.label);
               ("steps", Sep_util.Json.Int steps);
               ("telemetry", Sep_obs.Telemetry.to_json tel);
             ]);
        Sep_obs.Sink.emit sink
          (Sep_util.Json.Obj
             [
               ("kind", Sep_util.Json.String "net_link");
               ("steps", Sep_util.Json.Int net_steps);
               ("delivered", Sep_util.Json.Int rc.Sep_check.Diff.rc_delivered);
               ("retransmit_queue", Sep_util.Json.Int rc.Sep_check.Diff.rc_retransmit_queue);
               ("stats", link_stats_json rc.Sep_check.Diff.rc_stats);
             ]);
        Sep_obs.Sink.emit sink
          (Sep_util.Json.Obj
             [
               ("kind", Sep_util.Json.String "svc_counters");
               ("service", Sep_util.Json.String "fed-fs");
               ("steps", Sep_util.Json.Int svc_steps);
               ("telemetry", Sep_obs.Telemetry.to_json svc_tel);
             ]);
        Sep_obs.Sink.emit sink
          (Sep_util.Json.Obj
             [ ("kind", Sep_util.Json.String "spans"); ("telemetry", Sep_obs.Span.to_json ()) ]);
        Sep_obs.Sink.emit sink
          (Sep_util.Json.Obj
             [
               ("kind", Sep_util.Json.String "par");
               ("jobs", Sep_util.Json.Int jobs);
               ("telemetry", Sep_obs.Telemetry.to_json Sep_par.Par.registry);
             ])));
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
    (Sep_core.Metrics.sue_profile Sep_core.Scenarios.pipeline.Sep_core.Scenarios.cfg)
    Sep_core.Metrics.pp_profile Sep_core.Metrics.conventional_profile;
  0

let metrics_cmd =
  Cmd.v (Cmd.info "metrics" ~doc:"Print the kernel comparison profiles (E2).") Term.(const metrics_run $ const ())

(* -- inject ------------------------------------------------------------------ *)

let inject_run seed jobs steps count smoke json_file =
  let steps, count = if smoke then (60, 12) else (steps, count) in
  let module C = Sep_robust.Campaign in
  let report = C.run ~jobs ~seed ~steps ~count () in
  Fmt.pr "== fault-injection campaign: seed %d, %d steps, %d faults/scenario ==@." seed steps count;
  List.iter
    (fun (sr : C.scenario_report) ->
      (* no supervisor, so nothing is ever recovered-safe *)
      let m, d, _, v = C.tally (fun (c : C.case) -> c.C.outcome) sr.C.cases in
      Fmt.pr "  %-16s %3d masked  %3d detected-safe  %3d violating%s@." sr.C.label m d v
        (match sr.C.watchdog with Some w -> Fmt.str "  (watchdog %d)" w | None -> "");
      List.iter
        (fun (c : C.case) ->
          if c.C.outcome = C.Violating then
            Fmt.pr "    VIOLATION %a@." Sep_robust.Fault_plan.pp c.C.plan)
        sr.C.cases)
    report.C.rp_scenarios;
  let masked, detected, _, violating = C.totals report in
  let dist = C.run_distributed ~seed ~steps:40 ~count:20 in
  Fmt.pr "  %-16s %3d wire-tamper cases, %d messages hit, contained by construction: %b@."
    "distributed" dist.C.dr_cases dist.C.dr_affected dist.C.dr_contained;
  Fmt.pr "@.totals: %d masked, %d detected-safe, %d separation-violating@." masked detected violating;
  let ok = C.holds report && dist.C.dr_contained in
  Fmt.pr "fault containment %s@." (if ok then "HOLDS" else "VIOLATED");
  (match json_file with
  | None -> ()
  | Some file ->
    write_jsonl file @@ fun line ->
    List.iter line (C.report_lines report);
    line (C.dist_to_json dist));
  if ok then 0 else 1

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
  let module C = Sep_robust.Campaign in
  let report = C.run_recovery ~jobs ~seed ~steps ~count () in
  Fmt.pr "== recovery campaign: seed %d, %d steps, %d fault plans/scenario (plus multi-fault) ==@."
    seed steps count;
  List.iter
    (fun (sr : C.scenario_report) ->
      let m, d, r, v = C.tally (fun (c : C.case) -> c.C.outcome) sr.C.cases in
      Fmt.pr "  %-16s %3d masked  %3d detected-safe  %3d recovered-safe  %3d violating%s@."
        sr.C.label m d r v
        (match sr.C.watchdog with Some w -> Fmt.str "  (watchdog %d)" w | None -> "");
      List.iter
        (fun (c : C.case) ->
          if c.C.outcome = C.Violating then
            Fmt.pr "    VIOLATION %a@." Sep_robust.Fault_plan.pp c.C.plan)
        sr.C.cases)
    report.C.rp_scenarios;
  let masked, detected, recovered, violating = C.totals report in
  (* the reliable-channel differential: the kernel must still pin against
     the distributed ideal when the ideal's wires drop, duplicate and
     reorder frames under the reliable protocol *)
  let link = { Sep_distributed.Net.default_link_model with Sep_distributed.Net.lm_drop = drop } in
  let rel_cases, rel_steps = if smoke then (3, 90) else (6, 150) in
  let rel = Sep_check.Diff.kernel_vs_reliable_net ~link ~seed ~cases:rel_cases ~steps:rel_steps () in
  let mismatches = List.concat_map (fun rc -> rc.Sep_check.Diff.rc_mismatches) rel in
  let sum f = List.fold_left (fun n rc -> n + f rc) 0 rel in
  Fmt.pr "  %-16s %d cases at %d%% drop: %d delivered, %d retransmits, %d acks, %d mismatch%s@."
    "reliable-net" rel_cases drop
    (sum (fun rc -> rc.Sep_check.Diff.rc_delivered))
    (sum (fun rc -> rc.Sep_check.Diff.rc_stats.Sep_distributed.Net.ls_retransmits))
    (sum (fun rc -> rc.Sep_check.Diff.rc_stats.Sep_distributed.Net.ls_acks))
    (List.length mismatches)
    (if List.compare_length_with mismatches 1 = 0 then "" else "es");
  List.iter (fun m -> Fmt.pr "    MISMATCH %s@." m) mismatches;
  Fmt.pr "@.totals: %d masked, %d detected-safe, %d recovered-safe, %d separation-violating@." masked
    detected recovered violating;
  let ok = C.holds report && recovered > 0 && mismatches = [] in
  Fmt.pr "fail-operational %s@."
    (if ok then "HOLDS"
     else if violating > 0 then "VIOLATED"
     else if recovered = 0 then "DEGRADED (no fault recovered)"
     else "VIOLATED (reliable-channel differential failed)");
  (match json_file with
  | None -> ()
  | Some file ->
    write_jsonl file @@ fun line ->
    List.iter line (C.report_lines report);
    List.iteri
      (fun i (rc : Sep_check.Diff.reliable_case) ->
        line
          (Sep_util.Json.Obj
             [
               ("kind", Sep_util.Json.String "reliable-net");
               ("case", Sep_util.Json.Int i);
               ("drop", Sep_util.Json.Int drop);
               ("delivered", Sep_util.Json.Int rc.Sep_check.Diff.rc_delivered);
               ("stats", link_stats_json rc.Sep_check.Diff.rc_stats);
               ( "mismatches",
                 Sep_util.Json.List
                   (List.map (fun m -> Sep_util.Json.String m) rc.Sep_check.Diff.rc_mismatches) );
             ]))
      rel;
    line
      (Sep_util.Json.Obj
         [
           ("kind", Sep_util.Json.String "recover-summary");
           ("seed", Sep_util.Json.Int seed);
           ("masked", Sep_util.Json.Int masked);
           ("detected_safe", Sep_util.Json.Int detected);
           ("recovered_safe", Sep_util.Json.Int recovered);
           ("violating", Sep_util.Json.Int violating);
           ("ok", Sep_util.Json.Bool ok);
         ]));
  if ok then 0 else 1

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
  let clean =
    List.map
      (fun (spec : F.spec) ->
        let t = F.build spec in
        F.run t ~steps;
        let ob = F.finish t in
        let mism = Sep_check.Diff.federation_vs_ideal ~steps spec in
        Fmt.pr
          "  %-10s %d shards  %d links  %d words shard-to-shard  %d node events  ideal-diff %s@."
          spec.F.fs_label (F.shards t) (F.links t) ob.F.fob_delivered
          (List.length ob.F.fob_events)
          (if mism = [] then "clean" else "MISMATCH");
        List.iter (fun (_, _, m) -> Fmt.pr "    MISMATCH %s@." m) mism;
        (spec, ob, mism))
      specs
  in
  let ideal_ok = List.for_all (fun (_, _, m) -> m = []) clean in
  let reports =
    if not chaos then []
    else begin
      Fmt.pr "@.== federated chaos campaign: %d seeded plans/scenario (plus directed) ==@." count;
      List.map
        (fun (spec : F.spec) ->
          let r = FC.run ~jobs ~seed ~steps ~count spec in
          let m, d, rc, v = FC.totals r in
          Fmt.pr
            "  %-10s %3d cases  %3d masked  %3d detected-safe  %3d recovered-safe  %3d violating  \
             monitor %s@."
            r.FC.fr_label (List.length r.FC.fr_cases) m d rc v
            (if FC.monitor_clean r then "clean" else "VIOLATION");
          List.iter
            (fun (c : FC.case) ->
              if c.FC.fc_outcome = Sep_robust.Campaign.Violating then
                Fmt.pr "    VIOLATION %a@." Sep_robust.Fault_plan.pp c.FC.fc_plan)
            r.FC.fr_cases;
          r)
        specs
    end
  in
  let chaos_ok = List.for_all (fun r -> FC.holds r && FC.monitor_clean r) reports in
  let ok = ideal_ok && chaos_ok in
  Fmt.pr "@.federation %s@."
    (if ok then "HOLDS"
     else if not ideal_ok then "VIOLATED (federation diverged from the monolithic ideal)"
     else "VIOLATED");
  (match json_file with
  | None -> ()
  | Some file ->
    write_jsonl file @@ fun line ->
    List.iter
      (fun ((spec : F.spec), (ob : F.observation), mism) ->
        line
          (Sep_util.Json.Obj
             [
               ("kind", Sep_util.Json.String "fed-run");
               ("scenario", Sep_util.Json.String spec.F.fs_label);
               ("steps", Sep_util.Json.Int steps);
               ("delivered", Sep_util.Json.Int ob.F.fob_delivered);
               ("frame_rejects", Sep_util.Json.Int ob.F.fob_frame_rejects);
               ( "events",
                 Sep_util.Json.List
                   (List.map (fun (_, e) -> F.node_event_to_json e) ob.F.fob_events) );
               ("stats", link_stats_json ob.F.fob_stats);
               ( "ideal_mismatches",
                 Sep_util.Json.List (List.map (fun (_, _, m) -> Sep_util.Json.String m) mism) );
             ]))
      clean;
    List.iter (fun r -> List.iter line (FC.report_lines r)) reports);
  if ok then 0 else 1

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
             (List.map (fun d -> d.S.dp_name) Sep_apps.Fed_services.all));
        exit 2)
  in
  Fmt.pr "== services over the federation: seed %d, %d steps, %d soak plans ==@." seed steps soak;
  let reports =
    List.map
      (fun (dep : S.deployment) ->
        let r = SC.run ~jobs ~seed ~steps ~soak dep in
        let m, d, rc, v = SC.totals r in
        let sum f = List.fold_left (fun acc c -> acc + f c) 0 r.SC.sv_cases in
        Fmt.pr
          "  %-9s %3d cases  %3d masked  %3d detected-safe  %3d recovered-safe  %3d violating@."
          r.SC.sv_name (List.length r.SC.sv_cases) m d rc v;
        Fmt.pr
          "            %5d requests  %4d committed  %4d retries  %4d dedup-hits  %4d shed  \
           contract %s  monitor %s@."
          (sum (fun c -> c.SC.sc_contract.S.ct_requests))
          (sum (fun c -> c.SC.sc_contract.S.ct_committed))
          (sum (fun c -> c.SC.sc_retries))
          (sum (fun c -> c.SC.sc_dedup_hits))
          (sum (fun c -> c.SC.sc_shed))
          (if SC.contracts_ok r then "ok" else "BROKEN")
          (if SC.monitor_clean r then "clean" else "VIOLATION");
        List.iter
          (fun (c : SC.case) ->
            if c.SC.sc_outcome = Sep_robust.Campaign.Violating then
              Fmt.pr "    VIOLATION %a@." Sep_robust.Fault_plan.pp c.SC.sc_plan)
          r.SC.sv_cases;
        r)
      deployments
  in
  let ok = List.for_all (fun r -> SC.holds r && SC.monitor_clean r) reports in
  Fmt.pr "@.service contract %s@."
    (if ok then "HOLDS (every accepted request: exactly-once effect or definite failure)"
     else "VIOLATED");
  (match json_file with
  | None -> ()
  | Some file ->
    write_jsonl file @@ fun line ->
    List.iter (fun r -> List.iter line (SC.report_lines r)) reports);
  (match chrome with None -> () | Some file -> write_chrome file);
  if ok then 0 else 1

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
      match Sep_check.Score.corpus_case ~impl ~seed e with
      | None ->
        ok := false;
        Fmt.epr "rushby: no corpus case found for %a@." Sep_core.Sue.pp_bug e.bug
      | Some c -> (
        match Sep_check.Score.replay_corpus_case ~impl c with
        | Error msg ->
          ok := false;
          Fmt.epr "rushby: %s@." msg
        | Ok () ->
          let file = Filename.concat dir (Fmt.str "%a.json" Sep_core.Sue.pp_bug e.bug) in
          Sep_obs.Sink.with_file file (fun sink ->
              Sep_obs.Sink.emit sink (Sep_check.Score.corpus_case_to_json c));
          Fmt.pr "wrote %s (condition %d, %d-step schedule)@." file c.Sep_check.Score.cc_condition
            (List.length c.Sep_check.Score.cc_schedule)))
    Sep_core.Mutants.catalogue;
  if !ok then 0 else 1

let fuzz_replay rseed scenario bugs impl walks walk_len scrambles =
  let params = { Sep_core.Randomized.walks; walk_len; scrambles } in
  let report =
    Sep_core.Randomized.check ~bugs ~impl ~params ~seed:rseed
      ~inputs:scenario.Sep_core.Scenarios.alphabet scenario.Sep_core.Scenarios.cfg
  in
  Fmt.pr "%a@." Sep_core.Separability.pp_summary report;
  if Sep_core.Separability.verified report then 0
  else begin
    print_minimized scenario bugs impl rseed params
      (Sep_core.Separability.failing_conditions report);
    1
  end

let fuzz_full smoke seed jobs budget impl json_file =
  let budget = if smoke then 40 else budget in
  let runnable, skipped =
    List.partition_map
      (fun sc ->
        match unsupported impl sc with None -> Either.Left sc | Some reason -> Right (sc, reason))
      Sep_core.Scenarios.all
  in
  let results =
    List.map (fun sc -> Sep_check.Fuzz.fuzz_scenario ~impl ~jobs ~seed ~budget sc) runnable
  in
  Fmt.pr "== coverage-guided fuzz: seed %d, budget %d execs/scenario, %a kernel ==@." seed budget
    Sep_core.Sue.pp_impl impl;
  List.iter
    (fun (r : Sep_check.Fuzz.scenario_result) ->
      Fmt.pr "  %-12s %3d execs  %2d corpus  %3d coverage keys  %d failure%s@." r.sr_label
        r.sr_campaign.Sep_check.Fuzz.cp_execs
        (List.length r.sr_campaign.Sep_check.Fuzz.cp_entries)
        (List.length r.sr_campaign.Sep_check.Fuzz.cp_keys)
        (List.length r.sr_failures)
        (if List.compare_length_with r.sr_failures 1 = 0 then "" else "s"))
    results;
  List.iter (fun (sc, reason) -> print_skipped sc reason) skipped;
  let kills = Sep_check.Score.kill_table ~impl ~jobs ~seed ~budget () in
  let table =
    Sep_util.Table.create ~title:"Mutant kill rate per strategy"
      ~columns:[ "bug"; "scenario"; "strategy"; "killed"; "cond"; "states"; "checks"; "execs"; "instrs" ]
  in
  List.iter
    (fun (k : Sep_check.Score.kill) ->
      Sep_util.Table.add_row table
        [
          Sep_check.Score.bug_name k.kl_bug;
          k.kl_scenario;
          Sep_check.Score.strategy_name k.kl_strategy;
          (if k.kl_detected then "yes" else "NO");
          string_of_int k.kl_condition;
          string_of_int k.kl_states;
          string_of_int k.kl_checks;
          string_of_int k.kl_execs;
          (match k.kl_workload with
          | None -> "-"
          | Some w -> string_of_int (Sep_check.Score.workload_instrs w));
        ])
    kills;
  Sep_util.Table.print table;
  let clean = List.for_all (fun r -> r.Sep_check.Fuzz.sr_failures = []) results in
  let all_killed = List.for_all (fun k -> k.Sep_check.Score.kl_detected) kills in
  let minimal =
    List.for_all
      (fun (k : Sep_check.Score.kill) ->
        match k.kl_workload with
        | None -> true
        | Some w -> Sep_check.Score.workload_instrs w <= 10)
      kills
  in
  let ok = clean && all_killed && minimal in
  Fmt.pr "@.correct kernel: %s;  mutants: %s;  counterexamples: %s@."
    (if clean then "all conditions and solo isolation hold on every corpus member"
     else "CONDITION OR ISOLATION FAILURES FOUND")
    (if all_killed then "all killed under every strategy" else "SOME SURVIVED")
    (if minimal then "all killing workloads within 10 instructions" else "SOME ABOVE 10 INSTRUCTIONS");
  (match json_file with
  | None -> ()
  | Some file ->
    write_jsonl file @@ fun line ->
    List.iter (fun r -> List.iter line (Sep_check.Fuzz.scenario_result_lines r)) results;
    List.iter
      (fun k ->
        match Sep_check.Score.kill_to_json k with
        | Sep_util.Json.Obj kvs ->
          line (Sep_util.Json.Obj (("kind", Sep_util.Json.String "fuzz-kill") :: kvs))
        | other -> line other)
      kills;
    line
      (Sep_util.Json.Obj
         [
           ("kind", Sep_util.Json.String "fuzz-summary");
           ("seed", Sep_util.Json.Int seed);
           ("budget", Sep_util.Json.Int budget);
           ("scenarios", Sep_util.Json.Int (List.length results));
           ( "corpus",
             Sep_util.Json.Int
               (List.fold_left
                  (fun n (r : Sep_check.Fuzz.scenario_result) ->
                    n + List.length r.sr_campaign.Sep_check.Fuzz.cp_entries)
                  0 results) );
           ("kills", Sep_util.Json.Int (List.length kills));
           ("ok", Sep_util.Json.Bool ok);
         ]));
  if ok then 0 else 1

(* replay one checked-in test/corpus case: the fixed kernel must verify
   under its schedule AND the seeded bug must still fail the recorded
   condition — the CI regression step *)
let fuzz_replay_corpus impl file =
  graceful_write @@ fun () ->
  let ic = open_in file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let outcome =
    match Sep_util.Json.parse (String.trim contents) with
    | Error msg -> Error msg
    | Ok j -> (
      match Sep_check.Score.corpus_case_of_json j with
      | Error msg -> Error msg
      | Ok c -> (
        match Sep_check.Score.replay_corpus_case ~impl c with
        | Error msg -> Error msg
        | Ok () ->
          Ok (Fmt.str "%a condition %d still killed" Sep_core.Sue.pp_bug c.Sep_check.Score.cc_bug
                c.Sep_check.Score.cc_condition)))
  in
  match outcome with
  | Ok msg ->
    Fmt.pr "%s: %s@." file msg;
    0
  | Error msg ->
    Fmt.epr "rushby: %s: %s@." file msg;
    1

let fuzz_run smoke seed jobs budget json_file replay replay_corpus (scenario, impl) bugs walks
    walk_len scrambles emit_corpus =
  match (emit_corpus, replay, replay_corpus) with
  | Some dir, _, _ -> fuzz_corpus_emit dir seed impl
  | None, Some rseed, _ -> fuzz_replay rseed scenario bugs impl walks walk_len scrambles
  | None, None, Some file -> fuzz_replay_corpus impl file
  | None, None, None -> fuzz_full smoke seed jobs budget impl json_file

let fuzz_cmd =
  let budget =
    Arg.(value & opt int 480 & info [ "budget" ] ~doc:"Fuzz executions per scenario and per mutant.")
  in
  let smoke = smoke_arg "Small deterministic budget (40 execs) for CI." in
  let json_file = json_arg "Write corpus, kill table and summary as JSONL to $(docv)." in
  let replay =
    Arg.(value & opt (some int) None
         & info [ "replay" ] ~docv:"SEED"
             ~doc:"Replay a failing randomized run (with --scenario/--bug/--walks/--len/--scrambles) \
                   and print its minimized counterexamples.")
  in
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
      const fuzz_run $ smoke $ seed_arg $ jobs_arg $ budget $ json_file $ replay $ replay_corpus
      $ scenario_impl_arg $ bugs_arg $ walks_arg $ walk_len_arg $ scrambles_arg
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
      Fmt.pr "seed %d diverges %s at step %d (%s, workload %d -> %d in %d shrinks)@." seed
        k.Stack.k_bug k.Stack.k_step k.Stack.k_scenario k.Stack.k_original_size
        k.Stack.k_shrunk_size k.Stack.k_shrink_steps;
      1)

let refine_full smoke seed jobs json_file =
  let module Stack = Sep_refine.Stack in
  let module Kact = Sep_refine.Kact in
  let schedules, steps, machine_cases, stack_cases, attempts =
    if smoke then (1, 200, 6, 5, 10) else (3, 300, 20, 15, 20)
  in
  let scenarios = Stack.scenario_results ~schedules ~steps ~seed () in
  let machine_runs =
    List.init machine_cases (fun i ->
        let cseed = seed + (101 * (i + 1)) in
        let cfg, schedule = Sep_check.Gen.run ~seed:cseed Stack.machine_case in
        (cseed, Stack.check_machine cfg ~schedule ~steps))
  in
  let stack_runs =
    List.init stack_cases (fun i ->
        let cseed = seed + (211 * (i + 1)) in
        (cseed, Stack.check_stack (Sep_check.Gen.run ~seed:cseed (Kact.gen ()))))
  in
  let kills = Stack.kill_table ~jobs ~seed ~attempts () in
  let checks =
    List.fold_left
      (fun acc (_, r) -> match r with Ok c -> acc + c | Error _ -> acc)
      0
      (List.map (fun (l, r) -> (l, r)) scenarios
      @ List.map (fun (s, r) -> (string_of_int s, r)) machine_runs
      @ List.map (fun (s, r) -> (string_of_int s, r)) stack_runs)
  in
  let clean_failures =
    List.filter_map (fun (label, r) -> match r with Ok _ -> None | Error d -> Some (label, d))
      (scenarios
      @ List.map (fun (s, r) -> (Fmt.str "machine seed %d" s, r)) machine_runs
      @ List.map (fun (s, r) -> (Fmt.str "stack seed %d" s, r)) stack_runs)
  in
  let killed = List.filter (fun k -> k.Stack.k_killed) kills in
  Fmt.pr "== refinement stack: seed %d, %d scenario runs, %d machine + %d stack workloads ==@." seed
    (List.length scenarios) machine_cases stack_cases;
  Fmt.pr "  lockstep: %d commuting-square checks, %d divergence%s@." checks
    (List.length clean_failures)
    (if List.compare_length_with clean_failures 1 = 0 then "" else "s");
  List.iter (fun (label, d) -> Fmt.pr "    DIVERGED %s: %a@." label Stack.pp_divergence d)
    clean_failures;
  Fmt.pr "  kills: %d/%d seeded bugs caught@." (List.length killed) (List.length kills);
  List.iter
    (fun (k : Stack.kill) ->
      if k.Stack.k_killed then
        Fmt.pr "    %-26s %-13s step %-3d  %2d -> %2d  (%s)@." k.Stack.k_bug k.Stack.k_scenario
          k.Stack.k_step k.Stack.k_original_size k.Stack.k_shrunk_size (Stack.replay_command k)
      else Fmt.pr "    %-26s SURVIVED@." k.Stack.k_bug)
    kills;
  let ok = clean_failures = [] && List.length killed = List.length kills in
  Fmt.pr "refinement %s@." (if ok then "HOLDS" else "VIOLATED");
  (match json_file with
  | None -> ()
  | Some file ->
    write_jsonl file @@ fun line ->
    let open Sep_util.Json in
    line
      (Obj
         [
           ("kind", String "refine-header");
           ("schema", String "rushby-refine/1");
           ("seed", Int seed);
           ("smoke", Bool smoke);
         ]);
    let result_line kind label r =
      line
        (Obj
           ([ ("kind", String kind); ("label", String label) ]
           @
           match r with
           | Ok c -> [ ("ok", Bool true); ("checks", Int c) ]
           | Error d -> [ ("ok", Bool false); ("divergence", Stack.divergence_to_json d) ]))
    in
    List.iter (fun (label, r) -> result_line "refine-scenario" label r) scenarios;
    List.iter (fun (s, r) -> result_line "refine-machine" (string_of_int s) r) machine_runs;
    List.iter (fun (s, r) -> result_line "refine-stack" (string_of_int s) r) stack_runs;
    List.iter
      (fun k ->
        match Stack.kill_to_json k with
        | Obj kvs ->
          line
            (Obj
               (("kind", String "refine-kill")
               :: (kvs @ [ ("replay", String (Stack.replay_command k)) ])))
        | other -> line other)
      kills;
    line
      (Obj
         [
           ("kind", String "refine-summary");
           ("checks", Int checks);
           ("kills", Int (List.length killed));
           ("bugs", Int (List.length kills));
           ("ok", Bool ok);
         ]));
  if ok then 0 else 1

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
