module Prng = Sep_util.Prng
module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Recover = Sep_recover.Recover
module Ktrace = Sep_core.Ktrace
module Scenarios = Sep_core.Scenarios
module Separability = Sep_core.Separability
module Abstract_regime = Sep_core.Abstract_regime
module J = Sep_util.Json

type schedule = Sue.input list

let schedule_to_json s =
  J.List
    (List.map
       (fun step -> J.List (List.map (fun (d, w) -> J.List [ J.Int d; J.Int w ]) step))
       s)

let schedule_of_json j =
  let pair = function
    | J.List [ J.Int d; J.Int w ] -> Ok (d, w)
    | other -> Error ("expected [device, word], got " ^ J.to_string other)
  in
  let step = function
    | J.List pairs ->
      List.fold_right
        (fun p acc -> Result.bind acc (fun acc -> Result.map (fun p -> p :: acc) (pair p)))
        pairs (Ok [])
    | other -> Error ("expected a step list, got " ^ J.to_string other)
  in
  match j with
  | J.List steps ->
    List.fold_right
      (fun s acc -> Result.bind acc (fun acc -> Result.map (fun s -> s :: acc) (step s)))
      steps (Ok [])
  | other -> Error ("expected a schedule list, got " ^ J.to_string other)

(* -- Coverage keys ------------------------------------------------------------ *)

(* binary order of magnitude: 0, then 1 + floor(log2 v) *)
let bucket v =
  let rec go b v = if v <= 0 then b else go (b + 1) (v lsr 1) in
  go 0 v

let opcode_name (i : Isa.t) =
  match i with
  | Isa.Nop -> "nop"
  | Isa.Halt -> "halt"
  | Isa.Trap _ -> "trap"
  | Isa.Rti -> "rti"
  | Isa.Loadi _ -> "loadi"
  | Isa.Load _ -> "load"
  | Isa.Store _ -> "store"
  | Isa.Mov _ -> "mov"
  | Isa.Add _ -> "add"
  | Isa.Sub _ -> "sub"
  | Isa.And_ _ -> "and"
  | Isa.Or_ _ -> "or"
  | Isa.Xor _ -> "xor"
  | Isa.Cmp _ -> "cmp"
  | Isa.Shl _ -> "shl"
  | Isa.Shr _ -> "shr"
  | Isa.Beq _ -> "beq"
  | Isa.Bne _ -> "bne"
  | Isa.Br _ -> "br"

let event_key (e : Ktrace.event) =
  match e with
  | Ktrace.Executed { colour; instr; _ } -> Fmt.str "e:op:%s:%s" (Colour.name colour) (opcode_name instr)
  | Ktrace.Trapped { colour; number } -> Fmt.str "e:trap:%s:%d" (Colour.name colour) number
  | Ktrace.Switched { from_; to_ } -> Fmt.str "e:switch:%s>%s" (Colour.name from_) (Colour.name to_)
  | Ktrace.Blocked c -> "e:blocked:" ^ Colour.name c
  | Ktrace.Parked c -> "e:parked:" ^ Colour.name c
  | Ktrace.Woken c -> "e:woken:" ^ Colour.name c
  | Ktrace.Arrived { device; _ } -> Fmt.str "e:arrived:%d" device
  | Ktrace.Emitted { device; _ } -> Fmt.str "e:emitted:%d" device
  | Ktrace.Stalled -> "e:stall"
  | Ktrace.Save_corrupt c -> "e:save-corrupt:" ^ Colour.name c
  | Ktrace.Guard_breached _ -> "e:guard-breach"
  | Ktrace.Channel_corrupt _ -> "e:channel-corrupt"
  | Ktrace.Watchdog_fired c -> "e:watchdog:" ^ Colour.name c
  | Ktrace.Kernel_panicked _ -> "e:panic"
  | Ktrace.Restarted c -> "e:restarted:" ^ Colour.name c
  | Ktrace.Checkpoint_corrupt c -> "e:ckpt-corrupt:" ^ Colour.name c
  | Ktrace.Warm_rebooted -> "e:warm-reboot"

let kstat_keys (ks : Sue.kstats) =
  let per name pairs =
    List.filter_map
      (fun (c, v) -> if v > 0 then Some (Fmt.str "k:%s:%s:%d" name (Colour.name c) (bucket v)) else None)
      pairs
  in
  let flat name v = if v > 0 then [ Fmt.str "k:%s:%d" name (bucket v) ] else [] in
  per "instrs" ks.Sue.ks_instrs
  @ per "traps" ks.Sue.ks_traps
  @ per "swaps" ks.Sue.ks_swaps
  @ per "sent" ks.Sue.ks_sent
  @ per "recvd" ks.Sue.ks_recvd
  @ flat "switches" ks.Sue.ks_switches
  @ flat "irqs" ks.Sue.ks_irqs_forwarded
  @ flat "wakes" ks.Sue.ks_wakes
  @ flat "stalls" ks.Sue.ks_stalls
  @ flat "inputs" ks.Sue.ks_inputs_latched
  @ flat "outputs" ks.Sue.ks_outputs_observed
  @ flat "fault_parks" ks.Sue.ks_fault_parks
  @ flat "guard_breaches" ks.Sue.ks_guard_breaches
  @ flat "watchdog" ks.Sue.ks_watchdog_fires
  @ flat "panics" ks.Sue.ks_panics
  @ flat "checkpoints" ks.Sue.ks_checkpoints
  @ flat "restarts" ks.Sue.ks_restarts
  @ flat "warm_reboots" ks.Sue.ks_warm_reboots

let status_keys t colours =
  List.map
    (fun c ->
      let s =
        match Sue.regime_status t c with
        | Abstract_regime.Running -> "running"
        | Abstract_regime.Waiting -> "waiting"
        | Abstract_regime.Parked -> "parked"
      in
      Fmt.str "s:%s:%s" (Colour.name c) s)
    colours

(* -- One execution ------------------------------------------------------------ *)

type exec = {
  ex_keys : string list;
  ex_report : Separability.report;
}

(* Runs the schedule, then [settle] empty steps, and hands each state to
   [emit] with the kernel step that produced it (0 for the initial state):
   the snapshot, then its scrambled Phi-partners, colours in configuration
   order. *)
let run_once ?(bugs = []) ?(impl = Sue.Microcode) ~scrambles ~settle ~seed cfg sched emit =
  let rng = Prng.create seed in
  let t = Sue.build ~bugs ~impl cfg in
  let colours = Config.colours cfg in
  let events = ref [] in
  let add step =
    let s = Sue.copy t in
    emit step s;
    List.iter
      (fun c ->
        for _ = 1 to scrambles do
          emit step (Sue.scramble_others rng s c)
        done)
      colours
  in
  add 0;
  List.iteri
    (fun n input ->
      events := Ktrace.step t input :: !events;
      add (n + 1))
    (sched @ List.init settle (fun _ -> []));
  (t, List.concat (List.rev !events))

let execute ?(bugs = []) ?(impl = Sue.Microcode) ?(scrambles = 2) ?(settle = 24) ~seed ~alphabet cfg
    sched =
  let states = ref [] in
  let t, events =
    run_once ~bugs ~impl ~scrambles ~settle ~seed cfg sched (fun _ s -> states := s :: !states)
  in
  let keys =
    List.map event_key events
    @ kstat_keys (Sue.kstats t)
    @ status_keys t (Config.colours cfg)
  in
  let keys = List.sort_uniq compare keys in
  let sys = Sue.to_system ~bugs ~impl ~inputs:alphabet cfg in
  { ex_keys = keys; ex_report = Separability.check_states sys (List.rev !states) }

let check_schedule ?bugs ?impl ?scrambles ?settle ~seed ~alphabet cfg sched =
  (execute ?bugs ?impl ?scrambles ?settle ~seed ~alphabet cfg sched).ex_report

type online = {
  on_report : Separability.report;
  on_first_violation : (int * Separability.failure) option;
}

(* The same run as {!execute}, but each state streams through the
   monitor as it is produced, with the kernel step that produced it,
   instead of being collected for a post-hoc [check_states]. *)
let check_schedule_online ?(bugs = []) ?(impl = Sue.Microcode) ?(scrambles = 2) ?(settle = 24)
    ~seed ~alphabet cfg sched =
  let module Monitor = Sep_core.Monitor in
  let mon = Monitor.create (Sue.to_system ~bugs ~impl ~inputs:alphabet cfg) in
  ignore
    (run_once ~bugs ~impl ~scrambles ~settle ~seed cfg sched (fun step s ->
         ignore (Monitor.feed ~step mon s)));
  { on_report = Monitor.report mon; on_first_violation = Monitor.first_violation mon }

(* -- Mutation ----------------------------------------------------------------- *)

let mutate_schedule ~alphabet ~max_len rng sched =
  let arr = Array.of_list alphabet in
  let elt () = if Array.length arr = 0 then [] else Prng.choose rng arr in
  let n = List.length sched in
  let clip l = List.filteri (fun i _ -> i < max_len) l in
  let mutated =
    match Prng.int rng 5 with
    | 0 -> sched @ List.init (Prng.int_in rng 1 4) (fun _ -> elt ())
    | 1 when n > 0 ->
      let i = Prng.int rng n in
      List.filteri (fun j _ -> j <> i) sched
    | 2 when n > 0 ->
      let i = Prng.int rng n in
      List.mapi (fun j x -> if j = i then elt () else x) sched
    | 3 when n > 0 ->
      let i = Prng.int rng (n + 1) in
      let x = elt () in
      List.concat [ List.filteri (fun j _ -> j < i) sched; [ x ]; List.filteri (fun j _ -> j >= i) sched ]
    | 4 when n > 1 ->
      let i = Prng.int rng n in
      sched @ List.filteri (fun j _ -> j >= i) sched
    | _ -> sched @ [ elt () ]
  in
  clip mutated

(* -- The corpus engine -------------------------------------------------------- *)

type 'a entry = {
  en_id : int;
  en_input : 'a;
  en_new_keys : string list;
}

type 'a campaign = {
  cp_seed : int;
  cp_budget : int;
  cp_execs : int;
  cp_entries : 'a entry list;
  cp_keys : string list;
  cp_stopped : bool;
}

(* The batch width is a fixed constant, NOT the job count: candidates are
   generated (sequentially, from the engine's single PRNG) a batch at a
   time against the corpus snapshot at batch start, executed in parallel,
   then admitted in generation order. Tying the width to [jobs] would
   change which corpus snapshot each candidate mutates from and break the
   bit-identical-for-any-[-j] contract. *)
let batch_width = 8

let engine_exec ?jobs ~seed ~budget ~seeds ~mutate ~exec ~keys_of
    ?(stop = fun _ _ -> false) ?(witness = fun _ _ -> ()) () =
  let rng = Prng.create seed in
  let seen = Hashtbl.create 64 in
  let entries = ref [] in
  let nentries = ref 0 in
  let execs = ref 0 in
  let stopped = ref false in
  (* live campaign gauges on the driving domain's registry *)
  let g_corpus = Sep_obs.Telemetry.gauge (Sep_obs.Span.local ()) "fuzz.corpus" in
  let g_keys = Sep_obs.Telemetry.gauge (Sep_obs.Span.local ()) "fuzz.keys" in
  (* Sequential, canonical-order half of one execution: budget accounting,
     witness, corpus admission, stop. Batch results past a stop or past
     the budget are discarded unprocessed — the batch partition does not
     depend on [jobs], so the discard point doesn't either. *)
  let admit input result =
    if (not !stopped) && !execs < budget then begin
      incr execs;
      witness input result;
      let keys = keys_of result in
      let fresh = List.filter (fun k -> not (Hashtbl.mem seen k)) keys in
      List.iter (fun k -> Hashtbl.replace seen k ()) keys;
      let is_stop = stop input result in
      if fresh <> [] || is_stop then begin
        entries :=
          { en_id = !execs; en_input = input; en_new_keys = List.sort compare fresh }
          :: !entries;
        incr nentries
      end;
      if is_stop then stopped := true
    end
  in
  let run_batch inputs =
    List.iter2 admit inputs (Sep_par.Par.map ?jobs exec inputs);
    Sep_obs.Telemetry.set g_corpus (float_of_int !nentries);
    Sep_obs.Telemetry.set g_keys (float_of_int (Hashtbl.length seen))
  in
  let rec seed_batches = function
    | [] -> ()
    | rest when !stopped || !execs >= budget -> ignore rest
    | rest ->
      run_batch (List.filteri (fun i _ -> i < batch_width) rest);
      seed_batches (List.filteri (fun i _ -> i >= batch_width) rest)
  in
  seed_batches seeds;
  while (not !stopped) && !execs < budget && !nentries > 0 do
    (* newest-first list; the min of two uniform draws biases toward
       recent admissions without starving the rest of the corpus *)
    let arr = Array.of_list !entries in
    let pick () = min (Prng.int rng (Array.length arr)) (Prng.int rng (Array.length arr)) in
    let batch =
      List.init (min batch_width (budget - !execs)) (fun _ -> mutate rng arr.(pick ()).en_input)
    in
    run_batch batch
  done;
  {
    cp_seed = seed;
    cp_budget = budget;
    cp_execs = !execs;
    cp_entries = List.rev !entries;
    cp_keys = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []);
    cp_stopped = !stopped;
  }

let engine ~seed ~budget ~seeds ~mutate ~coverage ?(stop = fun _ -> false) () =
  engine_exec ~jobs:1 ~seed ~budget ~seeds ~mutate ~exec:coverage ~keys_of:Fun.id
    ~stop:(fun input _ -> stop input) ()

(* -- Fuzzing a scenario ------------------------------------------------------- *)

type failure = {
  fl_schedule : schedule;
  fl_conditions : int list;
  fl_isolation : (Colour.t * int * string) list;
}

type scenario_result = {
  sr_label : string;
  sr_seed : int;
  sr_campaign : schedule campaign;
  sr_failures : failure list;
}

let drip_schedule alphabet len =
  let nonempty = Array.of_list (List.filter (fun i -> i <> []) alphabet) in
  if Array.length nonempty = 0 then []
  else List.init len (fun n -> if n mod 3 = 0 then nonempty.((n / 3) mod Array.length nonempty) else [])

let max_failures_kept = 10

let fuzz_scenario ?(bugs = []) ?(impl = Sue.Microcode) ?(check_isolation = true) ?jobs ~seed
    ~budget (sc : Scenarios.instance) =
  let alphabet = sc.Scenarios.alphabet in
  let cfg = sc.Scenarios.cfg in
  let failures = ref [] in
  (* executions run on worker domains and are pure; failure collection
     happens in the sequential witness, in canonical admission order *)
  let witness sched e =
    let conds = Separability.failing_conditions e.ex_report in
    if conds <> [] && List.length !failures < max_failures_kept then
      failures := { fl_schedule = sched; fl_conditions = conds; fl_isolation = [] } :: !failures
  in
  let seeds =
    ([] :: List.map (fun i -> [ i ]) (List.filter (fun i -> i <> []) alphabet))
    @ [ drip_schedule alphabet 12 ]
  in
  let campaign =
    engine_exec ?jobs ~seed ~budget ~seeds ~mutate:(mutate_schedule ~alphabet ~max_len:32)
      ~exec:(fun sched -> execute ~bugs ~impl ~seed:(seed + 1) ~alphabet cfg sched)
      ~keys_of:(fun e -> e.ex_keys) ~witness ()
  in
  (* cut-wire solo isolation over the corpus: meaningful only when every
     channel is cut (an uncut channel makes regimes legitimately
     interdependent, so solo traces may differ) *)
  let isolable = List.for_all (fun (ch : Config.channel) -> ch.Config.cut) cfg.Config.channels in
  if check_isolation && isolable then
    Sep_par.Par.map ?jobs
      (fun e -> (e.en_input, Diff.solo_check ~impl cfg ~schedule:e.en_input))
      campaign.cp_entries
    |> List.iter (fun (sched, divergences) ->
           if divergences <> [] && List.length !failures < max_failures_kept then
             failures :=
               { fl_schedule = sched; fl_conditions = []; fl_isolation = divergences }
               :: !failures);
  { sr_label = sc.Scenarios.label; sr_seed = seed; sr_campaign = campaign; sr_failures = List.rev !failures }

(* -- Crash-restart exploration ------------------------------------------------ *)

type crash = int * Colour.t

type recovery_input = {
  ri_sched : schedule;
  ri_crashes : crash list;
}

(* The crash: corrupt one save-area slot of the victim before the step.
   Off-processor victims park at the next switch-to attempt and the
   supervisor restarts them; a currently-running victim's save area is
   overwritten at its next save, masking the crash — both are legitimate
   interleavings for the fuzzer to explore. *)
let crash_victim t c =
  let m = Sue.machine t in
  let a = Sue.save_area_base t c + 2 in
  Machine.write_phys m a (Machine.read_phys m a lxor 0x40)

(* Like {!execute} but under a recovery supervisor, with states sampled on
   both sides of every crash-restart boundary: after each step (catching
   parked states) and again after each supervision round that acted
   (catching the restored states). The separability check then quantifies
   over pre-crash, parked and post-restart states alike.

   One window is deliberately NOT sampled: crashed-but-undetected. A
   corrupted save area with a stale checksum is not a state of the
   fault-free system the conditions are stated over — stepping it parks
   the victim on another colour's behalf, which conditions 2 and 3
   correctly flag. The conditions' claim is about the states recovery
   leads {e through} (clean, parked, restored), not about the transient
   the fault itself created; that transient is the campaign's
   differential-trace territory. A victim crashed while it holds the
   processor is never dirty: its save area is rewritten (and resealed) at
   its next swap-out, before any validation can see the corruption. Note
   that {!Sue.regime_status} returning [Running] only means {e runnable}
   — only {!Sue.current_colour} identifies the regime whose live context
   shadows its save area. *)
let execute_recovery ?(policy = Recover.default_policy) ?(scrambles = 2) ?(settle = 24) ~seed
    ~alphabet cfg input =
  let rng = Prng.create seed in
  let t = Sue.build cfg in
  let sup = Recover.create ~policy t in
  let colours = Config.colours cfg in
  let states = ref [] in
  let events = ref [] in
  let add s =
    states := s :: !states;
    List.iter
      (fun c ->
        for _ = 1 to scrambles do
          states := Sue.scramble_others rng s c :: !states
        done)
      colours
  in
  add (Sue.copy t);
  let dirty = ref [] in
  let sched = Array.of_list input.ri_sched in
  let total = Array.length sched + settle in
  for n = 0 to total - 1 do
    List.iter
      (fun (at, c) ->
        if at = n then begin
          crash_victim t c;
          if Sue.current_colour t <> c then dirty := c :: !dirty
        end)
      input.ri_crashes;
    let inp = if n < Array.length sched then sched.(n) else [] in
    events := Ktrace.step t inp :: !events;
    (* detection resolves the dirty window: the park is a consistent state *)
    dirty := List.filter (fun c -> Sue.regime_status t c <> Abstract_regime.Parked) !dirty;
    if !dirty = [] then add (Sue.copy t);
    if Recover.tick sup <> [] && !dirty = [] then add (Sue.copy t)
  done;
  let keys =
    List.map event_key (List.concat (List.rev !events))
    @ kstat_keys (Sue.kstats t)
    @ status_keys t colours
  in
  let keys = List.sort_uniq compare keys in
  let sys = Sue.to_system ~inputs:alphabet cfg in
  { ex_keys = keys; ex_report = Separability.check_states sys (List.rev !states) }

(* Add, drop, move or re-target a crash point (at most three per input). *)
let mutate_crashes ~colours ~max_steps rng crashes =
  let arr = Array.of_list colours in
  let fresh () = (Prng.int rng max_steps, Prng.choose rng arr) in
  let n = List.length crashes in
  match Prng.int rng 4 with
  | 0 when n < 3 -> fresh () :: crashes
  | 1 when n > 1 ->
    let i = Prng.int rng n in
    List.filteri (fun j _ -> j <> i) crashes
  | 2 when n > 0 ->
    let i = Prng.int rng n in
    List.mapi (fun j (at, c) -> if j = i then (Prng.int rng max_steps, c) else (at, c)) crashes
  | 3 when n > 0 ->
    let i = Prng.int rng n in
    List.mapi (fun j (at, c) -> if j = i then (at, Prng.choose rng arr) else (at, c)) crashes
  | _ -> [ fresh () ]

type recovery_failure = {
  rf_schedule : schedule;
  rf_crashes : crash list;
  rf_conditions : int list;
}

type recovery_result = {
  rv_label : string;
  rv_seed : int;
  rv_campaign : recovery_input campaign;
  rv_failures : recovery_failure list;
}

let fuzz_recovery ?policy ?jobs ~seed ~budget (sc : Scenarios.instance) =
  let alphabet = sc.Scenarios.alphabet in
  let cfg = sc.Scenarios.cfg in
  let colours = Config.colours cfg in
  let failures = ref [] in
  let witness input e =
    let conds = Separability.failing_conditions e.ex_report in
    if conds <> [] && List.length !failures < max_failures_kept then
      failures :=
        { rf_schedule = input.ri_sched; rf_crashes = input.ri_crashes; rf_conditions = conds }
        :: !failures
  in
  let drip = drip_schedule alphabet 12 in
  let seeds =
    List.mapi (fun i c -> { ri_sched = drip; ri_crashes = [ (2 + (3 * i), c) ] }) colours
    @ [ { ri_sched = drip; ri_crashes = List.mapi (fun i c -> (4 + i, c)) colours } ]
  in
  let max_steps = 12 + 24 in
  let mutate rng input =
    if input.ri_crashes <> [] && Prng.bool rng then
      { input with ri_crashes = mutate_crashes ~colours ~max_steps rng input.ri_crashes }
    else { input with ri_sched = mutate_schedule ~alphabet ~max_len:32 rng input.ri_sched }
  in
  let campaign =
    engine_exec ?jobs ~seed ~budget ~seeds ~mutate
      ~exec:(fun input -> execute_recovery ?policy ~seed:(seed + 1) ~alphabet cfg input)
      ~keys_of:(fun e -> e.ex_keys) ~witness ()
  in
  {
    rv_label = sc.Scenarios.label;
    rv_seed = seed;
    rv_campaign = campaign;
    rv_failures = List.rev !failures;
  }

let scenario_result_lines r =
  List.map
    (fun e ->
      J.Obj
        [
          ("kind", J.String "fuzz-corpus");
          ("scenario", J.String r.sr_label);
          ("id", J.Int e.en_id);
          ("new_keys", J.List (List.map (fun k -> J.String k) e.en_new_keys));
          ("schedule", schedule_to_json e.en_input);
        ])
    r.sr_campaign.cp_entries
  @ [
      J.Obj
        [
          ("kind", J.String "fuzz-scenario");
          ("scenario", J.String r.sr_label);
          ("seed", J.Int r.sr_seed);
          ("budget", J.Int r.sr_campaign.cp_budget);
          ("execs", J.Int r.sr_campaign.cp_execs);
          ("corpus", J.Int (List.length r.sr_campaign.cp_entries));
          ("keys", J.Int (List.length r.sr_campaign.cp_keys));
          ("failures", J.Int (List.length r.sr_failures));
        ];
    ]

let scenario_result_to_jsonl r = Sep_obs.Sink.jsonl (scenario_result_lines r)
