(* Workload [verify]: exhaustive Proof of Separability of three scenarios.
   The checker is the product; this workload is dominated by the
   reachable-set dedup (hash_state / equal_state), Phi and the condition
   checks, and does no long in-place kernel runs and no federation. It
   takes no seed. *)

open Sep_core
module System = Sep_model.System
module Telemetry = Sep_obs.Telemetry
module Span = Sep_obs.Span
module Stats = Sep_util.Stats

(* A smoke run leaves out [pipeline], which alone takes ~2 s. *)
let scenarios (cfg : Probe.cfg) =
  (if cfg.Probe.smoke then [] else [ Scenarios.pipeline ]) @ [ Scenarios.interrupt; Scenarios.snfe_micro ]

(* Pinned at the commit that introduced the benchmark: states, checks and
   per-condition checks 1-6; every scenario must also verify. *)
let expected =
  [
    ("pipeline", (9944, 185436, [ 9944; 9944; 96935; 39776; 19387; 9450 ]));
    ("interrupt", (1797, 33556, [ 1797; 1797; 17550; 7188; 3510; 1714 ]));
    ("snfe-micro", (1679, 31457, [ 1679; 3358; 13833; 6716; 4611; 1260 ]));
  ]

let system (inst : Scenarios.instance) =
  Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg

let oracle label (r : Separability.report) =
  let states, checks, conds = List.assoc label expected in
  let got = List.map snd r.Separability.cond_checks in
  if not (Separability.verified r) then
    [ Fmt.str "verify %s: verdict is not VERIFIED" label ]
  else if r.Separability.states <> states || r.Separability.checks <> checks || got <> conds then
    [
      Fmt.str "verify %s: states/checks/cond_checks %d/%d/[%s], expected %d/%d/[%s]" label
        r.Separability.states r.Separability.checks
        (String.concat ";" (List.map string_of_int got))
        states checks
        (String.concat ";" (List.map string_of_int conds));
    ]
  else []

let build cfg = List.map (fun i -> (i.Scenarios.label, system i)) (scenarios cfg)

let run (cfg : Probe.cfg) =
  let systems = build cfg in
  let check_all () =
    List.map
      (fun (label, sys) ->
        let t0 = Probe.now () in
        let r = Separability.check sys in
        (label, r, Probe.since t0))
      systems
  in
  let warm = if cfg.smoke then [] else [ check_all () ] in
  let setup_s, timed = Probe.rounds cfg ~setup:(fun () -> build cfg) check_all in
  let all = List.concat (warm @ timed) in
  let mismatches = List.concat_map (fun (label, r, _) -> oracle label r) all in
  let round_rate round =
    let checks = List.fold_left (fun a (_, r, _) -> a + r.Separability.checks) 0 round in
    Probe.ratio (float_of_int checks) (List.fold_left (fun a (_, _, s) -> a +. s) 0.0 round)
  in
  let verdict_ms = List.map (List.map (fun (_, _, s) -> 1000.0 *. s)) timed in
  let n = List.length timed in
  let note = Fmt.str "host ms to one scenario's verdict, %d scenarios, each the median of %d rounds"
      (List.length systems) n in
  {
    Probe.metrics =
      [
        Probe.metric "setup_s" "s" setup_s ~note:"build the Sue systems; median of the samples between rounds";
        Probe.metric "work_per_s" "1/s" (Stats.percentile 50.0 (List.map round_rate timed))
          ~note:(Fmt.str "verify.checks_per_sec: condition checks per host s, median of %d rounds" n);
        Probe.metric "latency_ms_p50" "ms" (Probe.answer_percentile 50.0 verdict_ms) ~note;
        Probe.metric "latency_ms_p95" "ms" (Probe.answer_percentile 95.0 verdict_ms) ~note;
      ];
    info =
      List.mapi
        (fun i (label, _) ->
          Probe.metric ("verify.checks_per_sec." ^ label) "1/s"
            (Stats.percentile 50.0
               (List.map
                  (fun round ->
                    let _, r, s = List.nth round i in
                    Probe.ratio (float_of_int r.Separability.checks) s)
                  timed)))
        systems;
    attempted = List.length all;
    failed = List.length mismatches;
    mismatches;
  }

(* -- Traced ledger: system / sep ---------------------------------------------- *)

type timers = {
  hash : Probe.timer;
  equal : Probe.timer;
  abhash : Probe.timer;
  abequal : Probe.timer;
  phi : Probe.timer;
  op : Probe.timer;
  nextop : Probe.timer;
  input : Probe.timer;
  output : Probe.timer;
  abop : Probe.timer;
}

let timers () =
  let t = Probe.timer in
  {
    hash = t ();
    equal = t ();
    abhash = t ();
    abequal = t ();
    phi = t ();
    op = t ();
    nextop = t ();
    input = t ();
    output = t ();
    abop = t ();
  }

(* The system record with every field the checker calls through wrapped
   in a sampled timer. The wrapped calls are disjoint, so their estimated
   totals add up to the covered share of the check. *)
let wrap tm (sys : (_, _, _, _, _) System.t) =
  {
    sys with
    System.hash_state = Probe.timed tm.hash sys.System.hash_state;
    equal_state = Probe.timed2 tm.equal sys.System.equal_state;
    hash_abstate = Probe.timed tm.abhash sys.System.hash_abstate;
    equal_abstate = Probe.timed2 tm.abequal sys.System.equal_abstate;
    abstract = Probe.timed2 tm.phi sys.System.abstract;
    input = Probe.timed2 tm.input sys.System.input;
    output = Probe.timed tm.output sys.System.output;
    nextop =
      (fun s ->
        let op = Probe.timed tm.nextop sys.System.nextop s in
        { op with System.op_apply = Probe.timed tm.op op.System.op_apply });
    abop =
      (fun c op ->
        let a = sys.System.abop c op in
        { a with System.abop_apply = Probe.timed tm.abop a.System.abop_apply });
  }

let covered tm =
  List.fold_left
    (fun a t -> a +. Probe.total_s t)
    0.0
    [ tm.hash; tm.equal; tm.abhash; tm.abequal; tm.phi; tm.op; tm.nextop; tm.input; tm.output; tm.abop ]

(* Distinct keys and largest bucket of a multiset of hash values. *)
let distribution hashes =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun h -> Hashtbl.replace tbl h (1 + Option.value ~default:0 (Hashtbl.find_opt tbl h))) hashes;
  (Hashtbl.length tbl, Hashtbl.fold (fun _ n m -> max n m) tbl 0)

let span_s name =
  match Telemetry.find_histogram Span.registry ("span." ^ name) with
  | Some h -> Telemetry.sum h
  | None -> 0.0

(* Seconds in the checker's phase spans during one [Separability.check]. *)
type spans = { reachable : float; cond1_2 : float; cond3_6 : float; cond4 : float }

type scenario_trace = {
  label : string;
  tm : timers;
  states : int;
  wall : float;  (* wrapped reachable + condition checks *)
  hash_distinct : int;
  hash_max_bucket : int;
  abhash_distinct : int;
  abhash_max_bucket : int;
  spans : spans;
  span_wall : float;
  mismatches : string list;
}

let trace_scenario (inst : Scenarios.instance) =
  let label = inst.Scenarios.label in
  let plain = system inst in
  let tm = timers () in
  let sys = wrap tm plain in
  (* Pass 1, spans off: wrapped reachable set, then the six conditions over
     it — the same report [Separability.check] gives, plus the states. *)
  let t0 = Probe.now () in
  let states = System.reachable sys in
  let report = Separability.check_states sys states in
  let wall = Probe.since t0 in
  let hash_distinct, hash_max_bucket = distribution (List.map plain.System.hash_state states) in
  let abhash_distinct, abhash_max_bucket =
    List.fold_left
      (fun (d, m) c ->
        let d', m' =
          distribution
            (List.map (fun s -> plain.System.hash_abstate (plain.System.abstract c s)) states)
        in
        (d + d', max m m'))
      (0, 0) plain.System.colours
  in
  (* Pass 2: the checker's own phase spans, through their public switch. *)
  Span.reset ();
  Span.set_enabled true;
  let t1 = Probe.now () in
  let report2 = Separability.check plain in
  let span_wall = Probe.since t1 in
  Span.set_enabled false;
  let spans =
    {
      reachable = span_s "separability.reachable";
      cond1_2 = span_s "separability.cond1_2";
      cond3_6 = span_s "separability.cond3_4_5_6";
      cond4 = span_s "separability.cond4";
    }
  in
  Span.reset ();
  {
    label;
    tm;
    states = report.Separability.states;
    wall;
    hash_distinct;
    hash_max_bucket;
    abhash_distinct;
    abhash_max_bucket;
    spans;
    span_wall;
    mismatches = oracle label report @ oracle label report2;
  }

let ledger (cfg : Probe.cfg) =
  let traces = List.map trace_scenario (scenarios cfg) in
  let per_scenario (s : scenario_trace) =
    let c name v = Probe.count (Fmt.str "%s.%s" name s.label) v in
    [
      c "system.hash_calls" s.tm.hash.Probe.calls;
      c "system.equal_calls" s.tm.equal.Probe.calls;
      Probe.metric
        (Fmt.str "system.equal_calls_per_state.%s" s.label)
        "count"
        (Probe.ratio (float_of_int s.tm.equal.Probe.calls) (float_of_int s.states));
      c "system.hash_distinct" s.hash_distinct;
      c "system.hash_max_bucket" s.hash_max_bucket;
      c "sep.phi_calls" s.tm.phi.Probe.calls;
      c "sep.abhash_calls" s.tm.abhash.Probe.calls;
      c "sep.abequal_calls" s.tm.abequal.Probe.calls;
      c "sep.abhash_distinct" s.abhash_distinct;
      c "sep.abhash_max_bucket" s.abhash_max_bucket;
    ]
  in
  let all f = Probe.merge (List.map (fun s -> f s.tm) traces) in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 traces in
  let wall = sum (fun s -> s.wall) in
  let reach = sum (fun s -> s.spans.reachable) in
  let c12 = sum (fun s -> s.spans.cond1_2) in
  let c36 = sum (fun s -> s.spans.cond3_6) in
  let mismatches = List.concat_map (fun s -> s.mismatches) traces in
  {
    Probe.layer_metrics =
      List.concat_map per_scenario traces
      @ [
          Probe.metric "system.hash_ns" "ns" (Probe.mean_ns (all (fun t -> t.hash)));
          Probe.metric "system.equal_ns" "ns" (Probe.mean_ns (all (fun t -> t.equal)));
          Probe.metric "system.op_ns" "ns" (Probe.mean_ns (all (fun t -> t.op)));
          Probe.metric "sep.phi_ns" "ns" (Probe.mean_ns (all (fun t -> t.phi)));
          Probe.metric "system.reachable_s" "s" reach;
          Probe.metric "sep.cond1_2_s" "s" c12;
          Probe.metric "sep.cond3_6_s" "s" c36;
          Probe.metric "sep.cond4_s" "s" (sum (fun s -> s.spans.cond4))
            ~note:"inside sep.cond3_6_s: condition 4 runs within the 3-6 pass";
          Probe.metric "sep.residual_s" "s"
            (sum (fun s -> s.span_wall) -. reach -. c12 -. c36)
            ~note:"check wall time outside the reachable and condition spans";
        ];
    group_attempted = 2 * List.length traces;
    group_failed = List.length mismatches;
    group_mismatches = mismatches;
    residual_frac = Probe.ratio (wall -. List.fold_left (fun a s -> a +. covered s.tm) 0.0 traces) wall;
    (* Both passes make the same checks; the untraced base is the span
       pass, whose four phase spans per check cost a few clock reads. *)
    overhead_frac = Probe.ratio wall (sum (fun s -> s.span_wall)) -. 1.0;
  }
