(* Workload [kernel]: long in-place [Sue.step] runs with the default
   hardening (checksummed save areas, guard sweeps, output-commit
   checkpoints). This is the hw + sue hot path — fetch/decode/execute,
   trap, swap, checkpoint, guard sweep — with no hashing and no state
   copying: the mirror image of [verify], which steps only copied
   states. *)

open Sep_core
module Machine = Sep_hw.Machine
module Prng = Sep_util.Prng
module Stats = Sep_util.Stats

let configs =
  List.map (fun i -> (i, Sue.Microcode)) (Scenarios.all @ [ Scenarios.scaled ~regimes:2 ~counter_bits:3 ])
  @ [ (Scenarios.pipeline, Sue.Assembly) ]

let config_name ((inst : Scenarios.instance), impl) =
  Fmt.str "%s:%a" inst.Scenarios.label Sue.pp_impl impl

let steps (cfg : Probe.cfg) = if cfg.Probe.smoke then 50_000 else 1_000_000

(* Behaviour digests ([seal]) at seed 42, per config: (full run, smoke
   run), pinned at the commit that introduced the benchmark. *)
let pinned =
  [
    ("pipeline:microcode", (865178312256582523, 4533825857811897958));
    ("interrupt:microcode", (3149102126359692761, 2831883892394246915));
    ("snfe-micro:microcode", (4055999346872455199, 4210261031854150938));
    ("preemptive:microcode", (45709046722554162, 872721610073500360));
    ("scaled-2x3b:microcode", (3500178906979490408, 4287792679524309720));
    ("pipeline:assembly", (3918185368781548533, 2921501446435865777));
  ]

(* One input from the scenario alphabet every 10th step; config [i] draws
   from [Prng.stream seed i]. *)
let schedule (cfg : Probe.cfg) i ((inst : Scenarios.instance), _) =
  let alphabet = Array.of_list inst.Scenarios.alphabet in
  let rng = Prng.stream cfg.Probe.seed i in
  Array.init (steps cfg / 10) (fun _ -> Prng.choose rng alphabet)

let build ((inst : Scenarios.instance), impl) = Sue.build ~impl inst.Scenarios.cfg

let mix h n d w = ((h * 0x100000001b3) lxor (n lsl 24) lxor (d lsl 16) lxor w) land max_int

let rec digest h n = function
  | [] -> h
  | (d, w) :: rest -> digest (mix h n d w) n rest

(* Step the kernel through the schedule; [after] runs after every step.
   Returns the digest of the output stream (step, device, word). *)
let drive ?(after = ignore) k sched =
  let h = ref 0 and n = ref 0 in
  let one inp =
    h := digest !h !n (Sue.step k inp);
    after ();
    incr n
  in
  Array.iter
    (fun inp ->
      one inp;
      for _ = 1 to 9 do
        one []
      done)
    sched;
  !h

(* The output digest with the kernel's work counters folded in, so a
   config that emits nothing still has a behaviour digest.
   [ks_outputs_observed] is left out: only [Sue.step] counts it. *)
let seal k h =
  let s = Sue.kstats k in
  List.fold_left
    (fun h v -> mix h 0 0 v)
    h
    ([ s.Sue.ks_switches; s.Sue.ks_irqs_forwarded; s.Sue.ks_wakes; s.Sue.ks_stalls;
       s.Sue.ks_inputs_latched; s.Sue.ks_checkpoints ]
    @ List.concat_map (List.map snd)
        [ s.Sue.ks_instrs; s.Sue.ks_traps; s.Sue.ks_swaps; s.Sue.ks_sent; s.Sue.ks_recvd ])

let pinned_mismatch (cfg : Probe.cfg) name d =
  match List.assoc_opt name pinned with
  | Some (full, smoke) when cfg.Probe.seed = 42 ->
    let want = if cfg.Probe.smoke then smoke else full in
    if d <> want then [ Fmt.str "kernel %s: digest %d, pinned %d at seed 42" name d want ] else []
  | _ -> []

let run (cfg : Probe.cfg) =
  (* The input schedules are the benchmark's own inputs, made once and
     kept out of the set-up time: the set-up is building the kernels. *)
  let schedules = List.mapi (schedule cfg) configs in
  let round () =
    let kernels = List.map build configs in
    List.map2
      (fun k sched ->
        let t0 = Probe.now () in
        let d = drive k sched in
        let s = Probe.since t0 in
        (seal k d, s))
      kernels schedules
  in
  let warm = if cfg.Probe.smoke then [] else [ round () ] in
  let setup_s, timed = Probe.rounds cfg ~setup:(fun () -> List.map build configs) round in
  let all = warm @ timed in
  let reference = List.map fst (List.hd all) in
  let names = List.map config_name configs in
  (* one entry per failed (config, round), plus one per config whose
     digest misses its pin *)
  let mismatches =
    List.concat_map
      (fun r ->
        List.concat
          (List.map2
             (fun (name, want) (d, _) ->
               if d <> want then [ Fmt.str "kernel %s: digest %d differs from round 1's %d" name d want ]
               else [])
             (List.combine names reference) r))
      all
    @ List.concat (List.map2 (pinned_mismatch cfg) names reference)
  in
  let per_round = float_of_int (steps cfg * List.length configs) in
  let rate = Stats.percentile 50.0 (List.map (fun r -> per_round /. List.fold_left (fun a (_, s) -> a +. s) 0.0 r) timed) in
  let run_ms = List.map (List.map (fun (_, s) -> 1000.0 *. s)) timed in
  let note = Fmt.str "host ms for one config's %d steps, %d configs, each the median of %d rounds"
      (steps cfg) (List.length configs) (List.length timed) in
  {
    Probe.metrics =
      [
        Probe.metric "setup_s" "s" setup_s ~note:"build the six kernels; median of the samples between rounds";
        Probe.metric "work_per_s" "1/s" rate
          ~note:
            (Fmt.str "kernel.steps_per_sec: total steps / total host s of a round, median of %d rounds"
               (List.length timed));
        Probe.metric "latency_ms_p50" "ms" (Probe.answer_percentile 50.0 run_ms) ~note;
        Probe.metric "latency_ms_p95" "ms" (Probe.answer_percentile 95.0 run_ms) ~note;
      ];
    info =
      List.mapi
        (fun i name ->
          Probe.metric ("kernel.steps_per_sec." ^ name) "1/s"
            (Stats.percentile 50.0 (List.map (fun r -> float_of_int (steps cfg) /. snd (List.nth r i)) timed)))
        names;
    attempted = List.length configs * List.length all;
    failed = List.length mismatches;
    mismatches;
  }

(* -- Traced ledger: sue / hw, then monitor ------------------------------------ *)

type step_timers = {
  outputs : Probe.timer;
  deliver : Probe.timer;
  exec : Probe.timer;
  hw : Probe.timer;
  mutable probe_s : float;  (* copying the machine for the hw probe *)
}

(* [Sue.step] taken apart into its three public stages, each behind a
   sampled timer; on the sampled steps, [Machine.step_user] is also timed
   on a copy of the live machine, so the kernel's own share is exec_op
   minus the bare instruction. *)
let drive_decomposed tm k sched =
  let h = ref 0 and n = ref 0 in
  let one inp =
    let outs = Probe.timed tm.outputs Sue.outputs k in
    Probe.timed2 tm.deliver Sue.deliver_inputs k inp;
    if tm.exec.Probe.calls land (Probe.sample_period - 1) = 0 then begin
      let t0 = Probe.now () in
      ignore (Probe.always tm.hw Machine.step_user (Machine.copy (Sue.machine k)));
      tm.probe_s <- tm.probe_s +. Probe.since t0
    end;
    Probe.timed tm.exec Sue.exec_op k;
    h := digest !h !n outs;
    incr n
  in
  Array.iter
    (fun inp ->
      one inp;
      for _ = 1 to 9 do
        one []
      done)
    sched;
  !h

let sum_regimes l = List.fold_left (fun a (_, n) -> a + n) 0 l

(* The online monitor's deep-check period. *)
let period = 1000

type watched = { raw_digest : int; watched_s : float; watch : Monitor.swatch }

(* One config's passes. *)
type passes = {
  name : string;
  raw : int;  (* bare run's output digest *)
  sealed : int;  (* and with the work counters folded in *)
  bare_s : float;
  kstats : Sue.kstats;
  decomposed : int;  (* sealed *)
  decomposed_s : float;  (* hw probe copies included *)
  watched : watched option;  (* microcode configs only *)
}

(* A config's three passes, back to back so that a slow phase of the host
   hits them alike: bare [Sue.step] as the untraced run calls it; the
   decomposed step; and, on the microcode configs (the monitor's system
   is the microcode one), a run watched by [Monitor.watch]. *)
let passes tm ~cheap ~deep (((inst : Scenarios.instance), impl) as c) sched =
  let k = build c in
  let t0 = Probe.now () in
  let raw = drive k sched in
  let bare_s = Probe.since t0 in
  let kd = build c in
  let t0 = Probe.now () in
  let decomposed = seal kd (drive_decomposed tm kd sched) in
  let decomposed_s = Probe.since t0 in
  let watched =
    match impl with
    | Sue.Assembly -> None
    | Sue.Microcode ->
      let kw = build c in
      let w = Monitor.watch ~period ~inputs:inst.Scenarios.alphabet kw in
      let observe () =
        let due = Monitor.watch_steps w + 1 in
        if due land (Probe.sample_period - 1) = 0 || due mod period = 0 then begin
          let before = Monitor.deep_checks w in
          let t = Probe.now_ns () in
          Monitor.observe w;
          Probe.record (if Monitor.deep_checks w > before then deep else cheap) t
        end
        else Monitor.observe w
      in
      let t0 = Probe.now () in
      let d = drive ~after:observe kw sched in
      Some { raw_digest = d; watched_s = Probe.since t0; watch = w }
  in
  { name = config_name c; raw; sealed = seal k raw; bare_s; kstats = Sue.kstats k; decomposed; decomposed_s; watched }

(* The ledger runs each config for half the workload's steps, so that a
   traced run, which measures every layer group, stays under 30 s. *)
let ledger (cfg : Probe.cfg) =
  let half sched = Array.sub sched 0 (Array.length sched / 2) in
  let schedules = List.map half (List.mapi (schedule cfg) configs) in
  let total_steps = 10 * List.fold_left (fun a s -> a + Array.length s) 0 schedules in
  let tm =
    { outputs = Probe.timer (); deliver = Probe.timer (); exec = Probe.timer (); hw = Probe.timer (); probe_s = 0.0 }
  in
  let cheap = Probe.timer () and deep = Probe.timer () in
  let all = List.map2 (passes tm ~cheap ~deep) configs schedules in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let wall = sum (fun p -> p.decomposed_s) all -. tm.probe_s in
  let watched = List.filter_map (fun p -> Option.map (fun w -> (p, w)) p.watched) all in
  let deep_checks = List.fold_left (fun a (_, w) -> a + Monitor.deep_checks w.watch) 0 watched in
  let observed = List.fold_left (fun a (_, w) -> a + Monitor.watch_steps w.watch) 0 watched in
  deep.Probe.calls <- deep_checks;
  cheap.Probe.calls <- observed - deep_checks;
  let ks f = List.fold_left (fun a p -> a + f p.kstats) 0 all in
  let bare_w = sum (fun (p, _) -> p.bare_s) watched in
  let watched_w = sum (fun (_, w) -> w.watched_s) watched in
  let mismatches =
    List.filter_map
      (fun p ->
        if p.decomposed = p.sealed then None
        else Some (Fmt.str "kernel %s: decomposed-step digest %d differs from Sue.step's %d" p.name p.decomposed p.sealed))
      all
    @ List.concat_map
        (fun (p, w) ->
          (if w.raw_digest = p.raw then [] else [ Fmt.str "kernel %s: watched run's output digest differs" p.name ])
          @
          match Monitor.watch_first_violation w.watch with
          | None -> []
          | Some (step, _) -> [ Fmt.str "kernel %s: monitor flagged a violation at step %d" p.name step ])
        watched
  in
  let exec_ns = Probe.mean_ns tm.exec and hw_ns = Probe.mean_ns tm.hw in
  {
    Probe.layer_metrics =
      [
        Probe.metric "sue.outputs_ns" "ns" (Probe.mean_ns tm.outputs);
        Probe.metric "sue.deliver_ns" "ns" (Probe.mean_ns tm.deliver);
        Probe.metric "sue.exec_op_ns" "ns" exec_ns;
        Probe.metric "hw.step_user_ns" "ns" hw_ns ~note:"one user instruction on a copy of the live machine";
        Probe.metric "sue.kernel_ns" "ns" (exec_ns -. hw_ns) ~note:"sue.exec_op_ns - hw.step_user_ns";
        Probe.metric "sue.checkpoints" "1/ksteps" (Probe.per_k (ks (fun k -> k.Sue.ks_checkpoints)) total_steps);
        Probe.metric "sue.traps" "1/ksteps" (Probe.per_k (ks (fun k -> sum_regimes k.Sue.ks_traps)) total_steps);
        Probe.metric "sue.swaps" "1/ksteps" (Probe.per_k (ks (fun k -> sum_regimes k.Sue.ks_swaps)) total_steps);
        Probe.metric "sue.switches" "1/ksteps" (Probe.per_k (ks (fun k -> k.Sue.ks_switches)) total_steps);
        Probe.metric "sue.stalls" "1/ksteps" (Probe.per_k (ks (fun k -> k.Sue.ks_stalls)) total_steps);
        Probe.metric "monitor.observe_ns" "ns" (Probe.mean_ns cheap) ~note:"the cheap path, sampled";
        Probe.metric "monitor.deep_check_us" "us" (Probe.mean_ns deep /. 1000.0);
        Probe.count "monitor.deep_checks" deep_checks;
        Probe.metric "monitor.overhead_frac" "frac" (Probe.ratio (watched_w -. bare_w) bare_w)
          ~note:"watched vs bare Sue.step runs of the microcode configs";
      ];
    group_attempted = (2 * List.length all) + List.length watched;
    group_failed = List.length mismatches;
    group_mismatches = mismatches;
    residual_frac =
      Probe.ratio (wall -. Probe.total_s tm.outputs -. Probe.total_s tm.deliver -. Probe.total_s tm.exec) wall;
    overhead_frac = Probe.ratio wall (sum (fun p -> p.bare_s) all) -. 1.0;
  }
