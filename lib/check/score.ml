module Colour = Sep_model.Colour
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Mutants = Sep_core.Mutants
module Scenarios = Sep_core.Scenarios
module Separability = Sep_core.Separability
module Randomized = Sep_core.Randomized
module Prng = Sep_util.Prng
module J = Sep_util.Json

let bug_name b = Fmt.str "%a" Sue.pp_bug b
let bug_of_name s = List.find_opt (fun b -> String.equal (bug_name b) s) Sue.all_bugs

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  wl_progs : (Colour.t * Gen.action list) list;
  wl_sched : Fuzz.schedule;
}

let workload_instrs w = List.fold_left (fun n (_, acts) -> n + Gen.instr_count acts) 0 w.wl_progs

let apply_workload cfg w =
  {
    cfg with
    Config.regimes =
      List.map
        (fun r ->
          match List.assoc_opt r.Config.colour w.wl_progs with
          | None -> r
          | Some acts ->
            {
              r with
              Config.program = Gen.render acts;
              part_size = max r.Config.part_size (Gen.instr_count acts + 6);
            })
        cfg.Config.regimes;
  }

(* Structural shrinking of a workload: first the schedule, then each
   regime's action list in place. *)
let shrink_workload w =
  let scheds = Seq.map (fun s -> { w with wl_sched = s }) (Shrink.schedule w.wl_sched) in
  let rec progs prefix = function
    | [] -> Seq.empty
    | (c, acts) :: rest ->
      let here =
        Seq.map
          (fun acts' -> { w with wl_progs = List.rev_append prefix ((c, acts') :: rest) })
          (Shrink.list ~elem:Shrink.action acts)
      in
      Seq.append here (fun () -> progs ((c, acts) :: prefix) rest ())
  in
  Seq.append scheds (progs [] w.wl_progs)

(* Archetype workload seeds: tiny hand-shaped programs exercising each
   kernel surface a regime's capabilities allow. Most mutants die on one
   of these before any mutation happens. *)
let archetypes cfg alphabet =
  let colours = Config.colours cfg in
  let caps = List.map (fun c -> (c, Gen.caps_of_regime cfg c)) colours in
  let per f = List.map (fun (c, k) -> (c, f k)) caps in
  let progs =
    [
      per (fun _ -> []);
      per (fun _ -> [ Gen.Set (3, 7) ]);
      per (fun k ->
          (match k.Gen.tx_slots with s :: _ -> [ Gen.Set (3, 7); Gen.Emit (s, 3) ] | [] -> [])
          @ match k.Gen.rx_slots with s :: _ -> [ Gen.Poll s ] | [] -> []);
      per (fun k ->
          (match k.Gen.send_chans with ch :: _ -> [ Gen.Set (1, 5); Gen.Send (ch, 1) ] | [] -> [])
          @ match k.Gen.recv_chans with ch :: _ -> [ Gen.Recv ch ] | [] -> []);
      per (fun k -> if k.Gen.rx_slots <> [] then [ Gen.Wait ] else []);
    ]
  in
  let drip =
    match alphabet with
    | [] -> []
    | _ -> List.init 12 (fun i -> List.nth alphabet (i mod List.length alphabet))
  in
  List.concat_map (fun p -> [ { wl_progs = p; wl_sched = [] }; { wl_progs = p; wl_sched = drip } ]) progs

let mutate_workload cfg alphabet rng w =
  let n = List.length w.wl_progs in
  if n > 0 && Prng.int rng 2 = 0 then begin
    let i = Prng.int rng n in
    let mutate_prog (c, acts) =
      let caps = Gen.caps_of_regime cfg c in
      match Prng.int rng 3 with
      | 0 -> (c, acts @ [ Gen.action caps rng ])
      | 1 -> (
        match acts with
        | [] -> (c, [ Gen.action caps rng ])
        | _ ->
          let k = Prng.int rng (List.length acts) in
          (c, List.filteri (fun j _ -> j <> k) acts))
      | _ -> (c, Gen.actions caps ~max:4 rng)
    in
    { w with wl_progs = List.mapi (fun j p -> if j = i then mutate_prog p else p) w.wl_progs }
  end
  else { w with wl_sched = Fuzz.mutate_schedule ~alphabet ~max_len:16 rng w.wl_sched }

(* ------------------------------------------------------------------ *)
(* Kill records                                                        *)

type strategy =
  | Exhaustive
  | Randomized
  | Coverage

let strategy_name = function
  | Exhaustive -> "exhaustive"
  | Randomized -> "randomized"
  | Coverage -> "coverage"

type kill = {
  kl_bug : Sue.bug;
  kl_scenario : string;
  kl_strategy : strategy;
  kl_detected : bool;
  kl_condition : int;
  kl_states : int;
  kl_checks : int;
  kl_execs : int;
  kl_workload : workload option;
}

let kill_to_json k =
  J.Obj
    ([
       ("kind", J.String "fuzz-kill");
       ("bug", J.String (bug_name k.kl_bug));
       ("scenario", J.String k.kl_scenario);
       ("strategy", J.String (strategy_name k.kl_strategy));
       ("detected", J.Bool k.kl_detected);
       ("condition", J.Int k.kl_condition);
       ("states", J.Int k.kl_states);
       ("checks", J.Int k.kl_checks);
       ("execs", J.Int k.kl_execs);
     ]
    @
    match k.kl_workload with
    | None -> []
    | Some w ->
      [ ("instrs", J.Int (workload_instrs w)); ("schedule_len", J.Int (List.length w.wl_sched)) ])

let pp_kill ppf k =
  Fmt.pf ppf "%-26s %-10s %-10s %s  cond %d  states=%d checks=%d execs=%d%s" (bug_name k.kl_bug)
    k.kl_scenario
    (strategy_name k.kl_strategy)
    (if k.kl_detected then "KILLED  " else "SURVIVED")
    k.kl_condition k.kl_states k.kl_checks k.kl_execs
    (match k.kl_workload with
    | None -> ""
    | Some w -> Fmt.str " instrs=%d sched=%d" (workload_instrs w) (List.length w.wl_sched))

let exhaustive_kill ?(impl = Sue.Microcode) ?state_limit (e : Mutants.expectation) =
  let sys =
    Sue.to_system ~bugs:[ e.bug ] ~impl ~inputs:e.scenario.Scenarios.alphabet e.scenario.Scenarios.cfg
  in
  let r = Separability.check ?state_limit ~max_failures:1 sys in
  {
    kl_bug = e.bug;
    kl_scenario = e.scenario.Scenarios.label;
    kl_strategy = Exhaustive;
    kl_detected = List.mem e.primary (Separability.failing_conditions r);
    kl_condition = e.primary;
    kl_states = r.Separability.states;
    kl_checks = r.Separability.checks;
    kl_execs = 1;
    kl_workload = None;
  }

let randomized_kill ?(impl = Sue.Microcode) ?(max_walks = 32) ?jobs ~seed
    (e : Mutants.expectation) =
  let rec go walks spent =
    let params = { Randomized.default_params with Randomized.walks } in
    let r =
      Randomized.check ~bugs:[ e.bug ] ~impl ?jobs ~params ~max_failures:1 ~seed
        ~inputs:e.scenario.Scenarios.alphabet e.scenario.Scenarios.cfg
    in
    let detected = List.mem e.primary (Separability.failing_conditions r) in
    let spent = spent + walks in
    if detected || walks >= max_walks then (r, detected, spent) else go (walks * 2) spent
  in
  let r, detected, execs = go 1 0 in
  {
    kl_bug = e.bug;
    kl_scenario = e.scenario.Scenarios.label;
    kl_strategy = Randomized;
    kl_detected = detected;
    kl_condition = e.primary;
    kl_states = r.Separability.states;
    kl_checks = r.Separability.checks;
    kl_execs = execs;
    kl_workload = None;
  }

let coverage_kill ?(impl = Sue.Microcode) ?jobs ~seed ~budget (e : Mutants.expectation) =
  let cfg = e.scenario.Scenarios.cfg and alphabet = e.scenario.Scenarios.alphabet in
  let execute_raw w =
    Fuzz.execute ~bugs:[ e.bug ] ~impl ~seed:(seed + 1) ~alphabet (apply_workload cfg w)
      w.wl_sched
  in
  (* The engine derives coverage and stop from one parallel execution;
     re-executions during the sequential shrink phase are memoized on the
     spawning domain only. *)
  let cache = Hashtbl.create 64 in
  let execute w =
    match Hashtbl.find_opt cache w with
    | Some ex -> ex
    | None ->
      let ex = execute_raw w in
      Hashtbl.replace cache w ex;
      ex
  in
  let detected_ex ex = List.mem e.primary (Separability.failing_conditions ex.Fuzz.ex_report) in
  let detected w = detected_ex (execute w) in
  let campaign =
    Fuzz.engine_exec ?jobs ~seed ~budget ~seeds:(archetypes cfg alphabet)
      ~mutate:(mutate_workload cfg alphabet) ~exec:execute_raw
      ~keys_of:(fun ex -> ex.Fuzz.ex_keys)
      ~stop:(fun _ ex -> detected_ex ex) ()
  in
  let killer =
    List.find_opt (fun en -> detected en.Fuzz.en_input) (List.rev campaign.Fuzz.cp_entries)
  in
  match killer with
  | None ->
    {
      kl_bug = e.bug;
      kl_scenario = e.scenario.Scenarios.label;
      kl_strategy = Coverage;
      kl_detected = false;
      kl_condition = e.primary;
      kl_states = 0;
      kl_checks = 0;
      kl_execs = campaign.Fuzz.cp_execs;
      kl_workload = None;
    }
  | Some en ->
    let w, _ = Shrink.minimize ~still_failing:detected shrink_workload en.Fuzz.en_input in
    let r = (execute w).Fuzz.ex_report in
    {
      kl_bug = e.bug;
      kl_scenario = e.scenario.Scenarios.label;
      kl_strategy = Coverage;
      kl_detected = true;
      kl_condition = e.primary;
      kl_states = r.Separability.states;
      kl_checks = r.Separability.checks;
      kl_execs = campaign.Fuzz.cp_execs;
      kl_workload = Some w;
    }

(* One task per (mutant, strategy): each is an independent replay against
   its own fresh kernels, so the table parallelizes flat. Inner engines
   run at [jobs = 1] — the outer map already owns the domains. *)
let kill_table ?impl ?jobs ~seed ~budget () =
  List.concat_map
    (fun e -> [ (e, Exhaustive); (e, Randomized); (e, Coverage) ])
    Mutants.catalogue
  |> Sep_par.Par.map ?jobs (fun (e, strategy) ->
         match strategy with
         | Exhaustive -> exhaustive_kill ?impl e
         | Randomized -> randomized_kill ?impl ~jobs:1 ~seed e
         | Coverage -> coverage_kill ?impl ~jobs:1 ~seed ~budget e)

(* ------------------------------------------------------------------ *)
(* The fuzz campaign                                                   *)

type campaign = {
  cg_seed : int;
  cg_budget : int;
  cg_results : Fuzz.scenario_result list;
  cg_kills : kill list;
}

let campaign ?impl ?jobs ~seed ~budget scenarios =
  let cg_results = List.map (Fuzz.fuzz_scenario ?impl ?jobs ~seed ~budget) scenarios in
  let cg_kills = kill_table ?impl ?jobs ~seed ~budget () in
  { cg_seed = seed; cg_budget = budget; cg_results; cg_kills }

let clean c = List.for_all (fun (r : Fuzz.scenario_result) -> r.sr_failures = []) c.cg_results
let all_killed c = List.for_all (fun k -> k.kl_detected) c.cg_kills

let minimal c =
  List.for_all
    (fun k -> match k.kl_workload with None -> true | Some w -> workload_instrs w <= 10)
    c.cg_kills

let campaign_lines c =
  List.concat_map Fuzz.scenario_result_lines c.cg_results
  @ List.map kill_to_json c.cg_kills
  @ [
      J.Obj
        [
          ("kind", J.String "fuzz-summary");
          ("seed", J.Int c.cg_seed);
          ("budget", J.Int c.cg_budget);
          ("scenarios", J.Int (List.length c.cg_results));
          ( "corpus",
            J.Int
              (List.fold_left
                 (fun n (r : Fuzz.scenario_result) -> n + List.length r.sr_campaign.Fuzz.cp_entries)
                 0 c.cg_results) );
          ("kills", J.Int (List.length c.cg_kills));
          ("ok", J.Bool (clean c && all_killed c && minimal c));
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Regression corpus                                                   *)

type corpus_case = {
  cc_bug : Sue.bug;
  cc_scenario : string;
  cc_seed : int;
  cc_scrambles : int;
  cc_condition : int;
  cc_schedule : Fuzz.schedule;
}

let drip alphabet n =
  match alphabet with
  | [] -> []
  | _ -> List.init n (fun i -> List.nth alphabet (i mod List.length alphabet))

let corpus_case ?(impl = Sue.Microcode) ~seed (e : Mutants.expectation) =
  let cfg = e.scenario.Scenarios.cfg and alphabet = e.scenario.Scenarios.alphabet in
  let detects scrambles sched =
    List.mem e.primary
      (Separability.failing_conditions
         (Fuzz.check_schedule ~bugs:[ e.bug ] ~impl ~scrambles ~seed:(seed + 1) ~alphabet cfg
            sched))
  in
  let candidates =
    ([] :: List.filter_map (fun i -> if i = [] then None else Some [ i ]) alphabet)
    @ [ drip alphabet 16 ]
    @ Gen.generate ~seed:(seed + 3) ~count:12 (Gen.schedule ~alphabet ~max_len:24)
  in
  let rec levels = function
    | [] -> None
    | scr :: rest -> (
      match List.find_opt (detects scr) candidates with
      | Some sched -> Some (scr, sched)
      | None -> levels rest)
  in
  match levels [ 2; 5; 11 ] with
  | None -> None
  | Some (scr, sched) ->
    let sched, _ = Shrink.minimize ~still_failing:(detects scr) Shrink.schedule sched in
    Some
      {
        cc_bug = e.bug;
        cc_scenario = e.scenario.Scenarios.label;
        cc_seed = seed + 1;
        cc_scrambles = scr;
        cc_condition = e.primary;
        cc_schedule = sched;
      }

let corpus_case_to_json c =
  J.Obj
    [
      ("schema", J.String "rushby-corpus/1");
      ("bug", J.String (bug_name c.cc_bug));
      ("scenario", J.String c.cc_scenario);
      ("impl", J.String "microcode");
      ("seed", J.Int c.cc_seed);
      ("scrambles", J.Int c.cc_scrambles);
      ("condition", J.Int c.cc_condition);
      ("schedule", Fuzz.schedule_to_json c.cc_schedule);
    ]

let corpus_case_of_json json =
  let ( let* ) = Result.bind in
  let field name =
    match json with
    | J.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> Ok v
      | None -> Error (Fmt.str "corpus case: missing field %S" name))
    | _ -> Error "corpus case: not an object"
  in
  let int name =
    let* v = field name in
    match v with J.Int n -> Ok n | _ -> Error (Fmt.str "corpus case: %S not an int" name)
  in
  let str name =
    let* v = field name in
    match v with
    | J.String s -> Ok s
    | _ -> Error (Fmt.str "corpus case: %S not a string" name)
  in
  let* schema = str "schema" in
  let* () =
    if String.equal schema "rushby-corpus/1" then Ok ()
    else Error (Fmt.str "corpus case: unknown schema %S" schema)
  in
  let* bug_s = str "bug" in
  let* bug =
    match bug_of_name bug_s with
    | Some b -> Ok b
    | None -> Error (Fmt.str "corpus case: unknown bug %S" bug_s)
  in
  let* scenario = str "scenario" in
  let* seed = int "seed" in
  let* scrambles = int "scrambles" in
  let* condition = int "condition" in
  let* sched_json = field "schedule" in
  let* schedule = Fuzz.schedule_of_json sched_json in
  Ok
    {
      cc_bug = bug;
      cc_scenario = scenario;
      cc_seed = seed;
      cc_scrambles = scrambles;
      cc_condition = condition;
      cc_schedule = schedule;
    }

let replay_corpus_case ?(impl = Sue.Microcode) c =
  match Scenarios.find c.cc_scenario with
  | None -> Error (Fmt.str "corpus case %s: unknown scenario %S" (bug_name c.cc_bug) c.cc_scenario)
  | Some sc ->
    let check bugs =
      Fuzz.check_schedule ~bugs ~impl ~scrambles:c.cc_scrambles ~seed:c.cc_seed
        ~alphabet:sc.Scenarios.alphabet sc.Scenarios.cfg c.cc_schedule
    in
    let fixed = check [] in
    if not (Separability.verified fixed) then
      Error
        (Fmt.str "corpus case %s: fixed kernel fails conditions %s" (bug_name c.cc_bug)
           (String.concat ", "
              (List.map string_of_int (Separability.failing_conditions fixed))))
    else
      let buggy = check [ c.cc_bug ] in
      if List.mem c.cc_condition (Separability.failing_conditions buggy) then Ok ()
      else
        Error
          (Fmt.str "corpus case %s: condition %d no longer fails (got: %s)" (bug_name c.cc_bug)
             c.cc_condition
             (String.concat ", "
                (List.map string_of_int (Separability.failing_conditions buggy))))

(* ------------------------------------------------------------------ *)
(* Minimizing randomized counterexamples                               *)

type minimized = {
  mz_conditions : int list;
  mz_schedule : Fuzz.schedule;
  mz_seed : int;
  mz_scrambles : int;
  mz_shrink_steps : int;
}

let minimize_randomized ?(bugs = []) ?(impl = Sue.Microcode) ?(params = Randomized.default_params)
    ~seed ~inputs ~conditions cfg =
  let failing ~scrambles sched =
    Separability.failing_conditions
      (Fuzz.check_schedule ~bugs ~impl ~scrambles ~seed:(seed + 1) ~alphabet:inputs cfg sched)
  in
  let walks = Randomized.sampled_walks ~bugs ~impl ~params ~seed ~inputs cfg in
  let fresh =
    match inputs with
    | [] -> []
    | _ ->
      Gen.generate ~seed:(seed + 2) ~count:8
        (Gen.schedule ~alphabet:inputs ~max_len:params.Randomized.walk_len)
  in
  let candidates = walks @ fresh in
  let scr = params.Randomized.scrambles in
  let levels = [ scr; (scr * 2) + 1; (scr * 4) + 3 ] in
  let find_repro c =
    let rec go = function
      | [] -> None
      | scr :: rest -> (
        match List.find_opt (fun w -> List.mem c (failing ~scrambles:scr w)) candidates with
        | Some w -> Some (scr, w)
        | None -> go rest)
    in
    go levels
  in
  let minimize_one c (scrambles, w) =
    let still_failing w' = List.mem c (failing ~scrambles w') in
    let w', steps = Shrink.minimize ~still_failing Shrink.schedule w in
    {
      mz_conditions = failing ~scrambles w';
      mz_schedule = w';
      mz_seed = seed + 1;
      mz_scrambles = scrambles;
      mz_shrink_steps = steps;
    }
  in
  conditions
  |> List.filter_map (fun c -> Option.map (minimize_one c) (find_repro c))
  |> List.sort_uniq compare
