module Colour = Sep_model.Colour
module Component = Sep_model.Component
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Scenarios = Sep_core.Scenarios
module Mutants = Sep_core.Mutants
module Regime_kernel = Sep_core.Regime_kernel
module AR = Sep_core.Abstract_regime
module Gen = Sep_check.Gen
module Shrink = Sep_check.Shrink
module Score = Sep_check.Score
module Par = Sep_par.Par
module Prng = Sep_util.Prng
module Json = Sep_util.Json

type divergence = {
  d_level : string;
  d_step : int;
  d_reason : string;
}

let pp_divergence ppf d = Fmt.pf ppf "[%s] step %d: %s" d.d_level d.d_step d.d_reason

let divergence_to_json d =
  Json.Obj
    [
      ("level", Json.String d.d_level);
      ("step", Json.Int d.d_step);
      ("reason", Json.String d.d_reason);
    ]

(* -- The machine square ----------------------------------------------------- *)

let pp_out = Fmt.(Dump.list (Dump.pair int int))

(* Lockstep Sue against Mspec, returning both for post-mortem stream checks. *)
let lockstep ~bugs cfg ~schedule ~steps =
  let sue = Sue.build ~bugs cfg in
  let spec = Mspec.init cfg in
  let colours = Mspec.colours spec in
  let sched = Array.of_list schedule in
  let checks = ref 0 in
  let fail i reason = Some { d_level = "machine"; d_step = i; d_reason = reason } in
  let rec go i =
    if i >= steps then None
    else begin
      let arrivals = if i < Array.length sched then sched.(i) else [] in
      let out_sue = Sue.step sue arrivals in
      let out_spec = Mspec.step spec arrivals in
      incr checks;
      if out_sue <> out_spec then
        fail i (Fmt.str "output wires disagree: sue %a, spec %a" pp_out out_sue pp_out out_spec)
      else begin
        let bad =
          List.find_opt
            (fun c ->
              incr checks;
              not (AR.equal (Sue.phi sue c) (Mspec.machine spec c)))
            colours
        in
        match bad with
        | Some c -> fail i (Fmt.str "phi(%s) left the spec machine" (Colour.name c))
        | None ->
          incr checks;
          if not (Colour.equal (Sue.current_colour sue) (Mspec.current_colour spec)) then
            fail i
              (Fmt.str "processor position disagrees: sue %s, spec %s"
                 (Colour.name (Sue.current_colour sue))
                 (Colour.name (Mspec.current_colour spec)))
          else go (i + 1)
      end
    end
  in
  (sue, spec, !checks, go 0)

let check_machine ?(bugs = []) cfg ~schedule ~steps =
  let _, _, checks, diverged = lockstep ~bugs cfg ~schedule ~steps in
  match diverged with Some d -> Error d | None -> Ok checks

(* -- The behavioural square ------------------------------------------------- *)

let tick_externals n = List.init n (fun i -> (Colour.of_index i, "tick"))

(* Lockstep Regime_kernel against Bspec, returning the built pair. *)
let square ~bugs case =
  let n = List.length case.Kact.k_progs in
  let probes = Array.init n (fun _ -> Kact.new_probe ()) in
  let spec_probes = Array.init n (fun _ -> Kact.new_probe ()) in
  let rk = Regime_kernel.build ~bugs (Kact.to_topology case ~probes) in
  let bs = Bspec.build (Kact.to_topology case ~probes:spec_probes) in
  let rotations = Kact.rotations case in
  let per_rotation = (2 * n) + Bspec.chan_count bs + 5 in
  let checks = ref 0 in
  let rec go k =
    if k >= rotations then None
    else begin
      let externals = if k = 0 then tick_externals n else [] in
      Regime_kernel.step rk ~externals;
      Bspec.step bs ~externals;
      checks := !checks + per_rotation;
      match Bspec.agrees bs rk with
      | Error reason -> Some { d_level = "behavioural"; d_step = k; d_reason = reason }
      | Ok () -> go (k + 1)
    end
  in
  (rk, probes, !checks, go 0)

let check_behaviour ?(bugs = []) case =
  let _, _, checks, diverged = square ~bugs case in
  match diverged with Some d -> Error d | None -> Ok checks

(* -- The stream tie --------------------------------------------------------- *)

let pp_words = Fmt.(Dump.list int)

(* The reference bind stream of each colour: its receives in program order,
   each taking the next word bound on its channel. A receive the evaluation
   never reached finds its channel's stream exhausted and contributes
   nothing, so the walk reproduces exactly the executed prefix. *)
let reference_binds case (out : Kact.outcome) =
  let counters = Array.make (List.length case.Kact.k_chans) 0 in
  List.map
    (fun prog ->
      List.concat_map
        (function
          | Kact.KRecv (c, _) ->
            let k = counters.(c) in
            if k < List.length out.Kact.o_bound.(c) then begin
              counters.(c) <- k + 1;
              [ List.nth out.Kact.o_bound.(c) k ]
            end
            else []
          | _ -> [])
        prog)
    case.Kact.k_progs

let rk_sent rk colour chan =
  List.filter_map
    (function
      | Component.Did (Component.Send (c, msg)) when c = chan -> int_of_string_opt msg
      | _ -> None)
    (Regime_kernel.trace rk colour)

let user_regs regs = [ regs.(3); regs.(4); regs.(5) ]

let check_stack case =
  let reference = Kact.eval case in
  let n = List.length case.Kact.k_progs in
  let nchan = List.length case.Kact.k_chans in
  let steps = Kact.sue_steps case in
  let stream_fail reason = Some { d_level = "streams"; d_step = steps; d_reason = reason } in
  let first_mismatch checks =
    List.fold_left (fun acc check -> match acc with Some _ -> acc | None -> check ()) None checks
  in
  let compare_words what expected actual () =
    if expected = actual then None
    else stream_fail (Fmt.str "%s: reference %a, got %a" what pp_words expected pp_words actual)
  in
  (* machine level *)
  let _, spec, mchecks, mdiv = lockstep ~bugs:[] (Kact.to_config case) ~schedule:[] ~steps in
  let machine_streams () =
    first_mismatch
      (List.concat
         [
           List.init nchan (fun c ->
               compare_words (Fmt.str "sue sent ch%d" c) reference.Kact.o_sent.(c)
                 (Mspec.sent_words spec c));
           List.init nchan (fun c ->
               compare_words (Fmt.str "sue bound ch%d" c) reference.Kact.o_bound.(c)
                 (Mspec.consumed_words spec c));
           List.init n (fun i ->
               compare_words
                 (Fmt.str "sue emitted %s" (Colour.name (Colour.of_index i)))
                 reference.Kact.o_emitted.(i)
                 (Mspec.emitted_words spec (Colour.of_index i)));
           List.init n (fun i ->
               compare_words
                 (Fmt.str "sue registers of %s" (Colour.name (Colour.of_index i)))
                 (user_regs reference.Kact.o_regs.(i))
                 (user_regs (Mspec.machine spec (Colour.of_index i)).AR.regs));
         ])
  in
  (* behavioural level *)
  let rk, probes, bchecks, bdiv = square ~bugs:[] case in
  let binds = reference_binds case reference in
  let behavioural_streams () =
    first_mismatch
      (List.concat
         [
           List.init nchan (fun c ->
               let s, _, _ = List.nth case.Kact.k_chans c in
               compare_words (Fmt.str "kernel sent ch%d" c) reference.Kact.o_sent.(c)
                 (rk_sent rk (Colour.of_index s) c));
           List.init n (fun i ->
               compare_words
                 (Fmt.str "kernel bound by %s" (Colour.name (Colour.of_index i)))
                 (List.nth binds i)
                 (List.rev probes.(i).Kact.p_bound));
           List.init n (fun i ->
               compare_words
                 (Fmt.str "kernel emitted %s" (Colour.name (Colour.of_index i)))
                 reference.Kact.o_emitted.(i)
                 (List.filter_map int_of_string_opt
                    (Regime_kernel.outputs rk (Colour.of_index i))));
           List.init n (fun i ->
               compare_words
                 (Fmt.str "kernel registers of %s" (Colour.name (Colour.of_index i)))
                 (user_regs reference.Kact.o_regs.(i))
                 (user_regs probes.(i).Kact.p_regs));
         ])
  in
  match mdiv with
  | Some d -> Error d
  | None -> (
    match bdiv with
    | Some d -> Error d
    | None -> (
      match first_mismatch [ machine_streams; behavioural_streams ] with
      | Some d -> Error d
      | None -> Ok (mchecks + bchecks + (2 * ((2 * nchan) + (4 * n))))))

(* -- Generated machine workloads -------------------------------------------- *)

let machine_case rng =
  let cfg = Gen.config () rng in
  let cfg = if Prng.int rng 4 = 0 then Config.cut_all cfg else cfg in
  let schedule = Gen.schedule ~alphabet:(Gen.rx_alphabet cfg) ~max_len:24 rng in
  (cfg, schedule)

(* -- Stock scenarios -------------------------------------------------------- *)

let scenario_results ?(schedules = 3) ?(steps = 300) ~seed () =
  List.concat_map
    (fun (inst : Scenarios.instance) ->
      List.init schedules (fun k ->
          let schedule =
            Gen.run ~seed:(seed + (31 * k))
              (Gen.schedule ~alphabet:inst.Scenarios.alphabet ~max_len:32)
          in
          ( Fmt.str "%s/%d" inst.Scenarios.label k,
            check_machine inst.Scenarios.cfg ~schedule ~steps )))
    Scenarios.all

(* -- Mutant kill racing ----------------------------------------------------- *)

type kill = {
  k_bug : string;
  k_level : string;
  k_killed : bool;
  k_seed : int;
  k_attempts : int;
  k_scenario : string;
  k_step : int;
  k_original_size : int;
  k_shrunk_size : int;
  k_shrink_steps : int;
}

let replay_command k = Fmt.str "rushby refine --replay %d --bug %s" k.k_seed k.k_bug

let kill_to_json k =
  Json.Obj
    [
      ("kind", Json.String "refine-kill");
      ("bug", Json.String k.k_bug);
      ("level", Json.String k.k_level);
      ("killed", Json.Bool k.k_killed);
      ("seed", Json.Int k.k_seed);
      ("attempts", Json.Int k.k_attempts);
      ("scenario", Json.String k.k_scenario);
      ("step", Json.Int k.k_step);
      ("original_size", Json.Int k.k_original_size);
      ("shrunk_size", Json.Int k.k_shrunk_size);
      ("shrink_steps", Json.Int k.k_shrink_steps);
      ("replay", Json.String (replay_command k));
    ]

type target =
  | Sue_bug of Sue.bug
  | Rk_bug of Regime_kernel.bug

let rk_bug_name b = Fmt.str "%a" Regime_kernel.pp_bug b

let target_name = function
  | Sue_bug b -> Score.bug_name b
  | Rk_bug b -> rk_bug_name b

let targets =
  List.map (fun b -> Sue_bug b) Sue.all_bugs
  @ List.map (fun b -> Rk_bug b) Regime_kernel.all_bugs

let known_bugs = List.map target_name targets

let target_of_name name =
  List.find_opt (fun t -> String.equal (target_name t) name) targets

let schedule_size schedule =
  List.fold_left (fun acc arrivals -> acc + 1 + List.length arrivals) 0 schedule

let machine_diverges ~bug cfg schedule steps =
  match check_machine ~bugs:[ bug ] cfg ~schedule ~steps with
  | Error d -> Some d
  | Ok _ -> None

let behaviour_diverges ~bug case =
  match check_behaviour ~bugs:[ bug ] case with Error d -> Some d | Ok _ -> None

let shrink_budget = 400

(* One seeded detection attempt against one Sue bug: the catalogue scenario
   of the bug under a seeded input schedule first (that is where the broken
   behaviour is known to be reachable), a generated workload second. On
   divergence the schedule is shrunk to a minimum that still diverges. *)
let sue_kill bug ~seed ~attempt =
  let name = Score.bug_name bug in
  let finish scenario cfg schedule steps d0 =
    let still_failing s = machine_diverges ~bug cfg s steps <> None in
    let shrunk, shrink_steps =
      Shrink.minimize ~max_steps:shrink_budget ~still_failing Shrink.schedule schedule
    in
    let d = Option.value (machine_diverges ~bug cfg shrunk steps) ~default:d0 in
    Some
      {
        k_bug = name;
        k_level = "sue";
        k_killed = true;
        k_seed = seed;
        k_attempts = attempt;
        k_scenario = scenario;
        k_step = d.d_step;
        k_original_size = schedule_size schedule;
        k_shrunk_size = schedule_size shrunk;
        k_shrink_steps = shrink_steps;
      }
  in
  let catalogue () =
    match Mutants.for_bug bug with
    | None -> None
    | Some e ->
      let inst = e.Mutants.scenario in
      let schedule =
        Gen.run ~seed (Gen.schedule ~alphabet:inst.Scenarios.alphabet ~max_len:32)
      in
      let steps = 400 in
      Option.bind (machine_diverges ~bug inst.Scenarios.cfg schedule steps) (fun d ->
          finish inst.Scenarios.label inst.Scenarios.cfg schedule steps d)
  in
  let generated () =
    let cfg, schedule = Gen.run ~seed machine_case in
    let steps = 300 in
    Option.bind (machine_diverges ~bug cfg schedule steps) (fun d ->
        finish "generated" cfg schedule steps d)
  in
  match catalogue () with Some k -> Some k | None -> generated ()

(* One seeded detection attempt against one Regime_kernel bug: a generated
   Kact workload through the behavioural square, the workload shrunk on
   divergence. *)
let rk_kill bug ~seed ~attempt =
  let case = Gen.run ~seed (Kact.gen ()) in
  Option.map
    (fun (d0 : divergence) ->
      let still_failing c = behaviour_diverges ~bug c <> None in
      let shrunk, shrink_steps =
        Shrink.minimize ~max_steps:shrink_budget ~still_failing Kact.shrink case
      in
      let d = Option.value (behaviour_diverges ~bug shrunk) ~default:d0 in
      {
        k_bug = rk_bug_name bug;
        k_level = "regime_kernel";
        k_killed = true;
        k_seed = seed;
        k_attempts = attempt;
        k_scenario = "generated";
        k_step = d.d_step;
        k_original_size = Kact.size case;
        k_shrunk_size = Kact.size shrunk;
        k_shrink_steps = shrink_steps;
      })
    (behaviour_diverges ~bug case)

let attempt_target target ~seed ~attempt =
  match target with
  | Sue_bug b -> sue_kill b ~seed ~attempt
  | Rk_bug b -> rk_kill b ~seed ~attempt

let missed target =
  {
    k_bug = target_name target;
    k_level = (match target with Sue_bug _ -> "sue" | Rk_bug _ -> "regime_kernel");
    k_killed = false;
    k_seed = 0;
    k_attempts = 0;
    k_scenario = "-";
    k_step = -1;
    k_original_size = 0;
    k_shrunk_size = 0;
    k_shrink_steps = 0;
  }

let race prng target ~attempts =
  let rec go i =
    if i >= attempts then missed target
    else begin
      let seed = Prng.int prng 1_000_000_000 in
      match attempt_target target ~seed ~attempt:(i + 1) with
      | Some k -> k
      | None -> go (i + 1)
    end
  in
  go 0

let kill_table ?jobs ~seed ~attempts () =
  Par.map_seeded ?jobs ~seed (fun prng target -> race prng target ~attempts) targets

let replay ~seed ~bug =
  match target_of_name bug with
  | None ->
    Error (Fmt.str "unknown bug %S (known: %s)" bug (String.concat ", " known_bugs))
  | Some target -> Ok (attempt_target target ~seed ~attempt:1)

(* -- The refinement campaign ------------------------------------------------- *)

type report = {
  rp_seed : int;
  rp_smoke : bool;
  rp_scenarios : (string * (int, divergence) result) list;
  rp_machines : (int * (int, divergence) result) list;
  rp_stacks : (int * (int, divergence) result) list;
  rp_kills : kill list;
}

let run ?jobs ~smoke ~seed () =
  let schedules, steps, machine_cases, stack_cases, attempts =
    if smoke then (1, 200, 6, 5, 10) else (3, 300, 20, 15, 20)
  in
  let rp_scenarios = scenario_results ~schedules ~steps ~seed () in
  let rp_machines =
    List.init machine_cases (fun i ->
        let cseed = seed + (101 * (i + 1)) in
        let cfg, schedule = Gen.run ~seed:cseed machine_case in
        (cseed, check_machine cfg ~schedule ~steps))
  in
  let rp_stacks =
    List.init stack_cases (fun i ->
        let cseed = seed + (211 * (i + 1)) in
        (cseed, check_stack (Gen.run ~seed:cseed (Kact.gen ()))))
  in
  let rp_kills = kill_table ?jobs ~seed ~attempts () in
  { rp_seed = seed; rp_smoke = smoke; rp_scenarios; rp_machines; rp_stacks; rp_kills }

(* every lockstep run, labelled as the report prints it *)
let runs r =
  r.rp_scenarios
  @ List.map (fun (s, res) -> (Fmt.str "machine seed %d" s, res)) r.rp_machines
  @ List.map (fun (s, res) -> (Fmt.str "stack seed %d" s, res)) r.rp_stacks

let checks r =
  List.fold_left (fun acc (_, res) -> match res with Ok c -> acc + c | Error _ -> acc) 0 (runs r)

let divergences r =
  List.filter_map
    (fun (label, res) -> match res with Ok _ -> None | Error d -> Some (label, d))
    (runs r)

let killed r = List.filter (fun k -> k.k_killed) r.rp_kills
let holds r = divergences r = [] && List.length (killed r) = List.length r.rp_kills

let report_lines r =
  let result_line kind label res =
    Json.Obj
      ([ ("kind", Json.String kind); ("label", Json.String label) ]
      @
      match res with
      | Ok c -> [ ("ok", Json.Bool true); ("checks", Json.Int c) ]
      | Error d -> [ ("ok", Json.Bool false); ("divergence", divergence_to_json d) ])
  in
  [
    Json.Obj
      [
        ("kind", Json.String "refine-header");
        ("schema", Json.String "rushby-refine/1");
        ("seed", Json.Int r.rp_seed);
        ("smoke", Json.Bool r.rp_smoke);
      ];
  ]
  @ List.map (fun (label, res) -> result_line "refine-scenario" label res) r.rp_scenarios
  @ List.map (fun (s, res) -> result_line "refine-machine" (string_of_int s) res) r.rp_machines
  @ List.map (fun (s, res) -> result_line "refine-stack" (string_of_int s) res) r.rp_stacks
  @ List.map kill_to_json r.rp_kills
  @ [
      Json.Obj
        [
          ("kind", Json.String "refine-summary");
          ("checks", Json.Int (checks r));
          ("kills", Json.Int (List.length (killed r)));
          ("bugs", Json.Int (List.length r.rp_kills));
          ("ok", Json.Bool (holds r));
        ];
    ]
