(* Workload [services]: the four section 6 deployments, each under seeds
   [seed] and [seed + 1]. A run is [Svc.build ~monitor:true], 10,000
   [Svc.step]s and [Svc.finish] — a closed loop with the default tuning
   (3 clients per deployment, think time 2-20 steps). This is the whole
   request path (svc client/replica -> fed NIC drain/inject -> net
   go-back-N -> sue -> monitor), and long enough that a per-step cost
   growing with run length shows. *)

module Svc = Sep_svc.Svc
module Fed = Sep_fed.Fed
module Net = Sep_distributed.Net
module Telemetry = Sep_obs.Telemetry
module Stats = Sep_util.Stats

let steps (cfg : Probe.cfg) = if cfg.Probe.smoke then 500 else 10_000

(* Every deployment at each of [seeds]. *)
let runs seeds = List.concat_map (fun dep -> List.map (fun seed -> (dep, seed)) seeds) Sep_apps.Fed_services.all

let build (dep, seed) = Svc.build ~monitor:true ~seed dep

type measured = {
  label : string;
  engine : Svc.t;
  result : Svc.result;
  t0 : float;
  ends : float array;  (* the clock after every Svc.step *)
  finish_s : float;
  wall : float;  (* the steps and the finish *)
}

(* The benchmark reads the clock after every step, traced or not, so a
   request's host round trip runs from the end of its issue step to the
   end of its resolve step. *)
let measure cfg ((dep : Svc.deployment), seed) engine =
  let n = steps cfg in
  let ends = Array.make n 0.0 in
  let t0 = Probe.now () in
  for i = 0 to n - 1 do
    Svc.step engine;
    ends.(i) <- Probe.now ()
  done;
  let tf = Probe.now () in
  let result = Svc.finish engine in
  let t_end = Probe.now () in
  {
    label = Fmt.str "%s/%d" dep.Svc.dp_name seed;
    engine;
    result;
    t0;
    ends;
    finish_s = t_end -. tf;
    wall = t_end -. t0;
  }

let records m = m.result.Svc.sr_records

let good (r : Svc.record) =
  match r.Svc.rr_outcome with Some (Svc.O_committed _ | Svc.O_replied _) -> true | _ -> false

let requests ms = List.fold_left (fun a m -> a + List.length (records m)) 0 ms
let bad ms = List.fold_left (fun a m -> a + List.length (List.filter (fun r -> not (good r)) (records m))) 0 ms

let check m =
  let c = m.result.Svc.sr_contract in
  (if c.Svc.ct_ok then [] else [ Fmt.str "services %s: exactly-once contract broken" m.label ])
  @ (if c.Svc.ct_unresolved = 0 then []
     else [ Fmt.str "services %s: %d requests unresolved" m.label c.Svc.ct_unresolved ])
  @ (match m.result.Svc.sr_fed.Fed.fob_first_violation with
    | None -> []
    | Some (shard, step) ->
      [ Fmt.str "services %s: monitor flagged shard %d at step %d" m.label shard step ])
  @
  match bad [ m ] with
  | 0 -> []
  | n -> [ Fmt.str "services %s: %d requests did not commit or reply" m.label n ]

let resolved ms = List.fold_left (fun a m -> a + m.result.Svc.sr_contract.Svc.ct_resolved) 0 ms
let wall ms = List.fold_left (fun a m -> a +. m.wall) 0.0 ms
let delivered ms = List.fold_left (fun a m -> a + m.result.Svc.sr_fed.Fed.fob_delivered) 0 ms

(* Host ms of the requests resolved inside the stepped window. *)
let rtt_ms m =
  let n = Array.length m.ends in
  List.filter_map
    (fun (r : Svc.record) ->
      if r.Svc.rr_outcome <> None && r.Svc.rr_resolved < n then
        Some (1000.0 *. (m.ends.(r.Svc.rr_resolved) -. m.ends.(r.Svc.rr_issued)))
      else None)
    (records m)

let rtt_steps ms =
  List.concat_map
    (fun m ->
      List.filter_map
        (fun (r : Svc.record) ->
          if r.Svc.rr_outcome = None then None
          else Some (float_of_int (r.Svc.rr_resolved - r.Svc.rr_issued)))
        (records m))
    ms

let round cfg plan = List.map2 (measure cfg) plan (List.map build plan)

let run (cfg : Probe.cfg) =
  let plan = runs [ cfg.Probe.seed; cfg.Probe.seed + 1 ] in
  if not cfg.Probe.smoke then
    List.iter
      (fun dep ->
        let e = build (dep, cfg.Probe.seed) in
        Svc.run e ~steps:500;
        ignore (Svc.finish e))
      Sep_apps.Fed_services.all;
  let setup_s, timed = Probe.rounds cfg ~setup:(fun () -> List.map build plan) (fun () -> round cfg plan) in
  let all = List.concat timed in
  let rtts = List.concat_map rtt_ms all in
  let steps_rtt = rtt_steps all in
  let mismatches = List.concat_map check all in
  let note = Fmt.str "host ms from issue step to resolve step, %d requests" (List.length rtts) in
  {
    Probe.metrics =
      [
        Probe.metric "setup_s" "s" setup_s ~note:"build 8 monitored service engines; median of the samples between rounds";
        (* Every round replays the same runs, and there are only one or
           two in a budget, so the rate pools them. *)
        Probe.metric "work_per_s" "1/s" (Probe.ratio (float_of_int (resolved all)) (wall all))
          ~note:
            (Fmt.str "svc.requests_per_sec: resolved requests per host s, over %d rounds" (List.length timed));
        Probe.metric "latency_ms_p50" "ms" (Stats.percentile 50.0 rtts) ~note:("svc.rtt_ms_p50: " ^ note);
        Probe.metric "latency_ms_p95" "ms" (Stats.percentile 95.0 rtts) ~note:("svc.rtt_ms_p95: " ^ note);
      ];
    info =
      [
        Probe.metric "svc.rtt_steps_p50" "steps" (Stats.percentile 50.0 steps_rtt);
        Probe.metric "svc.rtt_steps_p95" "steps" (Stats.percentile 95.0 steps_rtt);
        Probe.metric "fed.words_per_sec" "1/s" (Probe.ratio (float_of_int (delivered all)) (wall all))
          ~note:"inter-shard channel words per host s";
      ];
    attempted = requests all;
    failed = bad all;
    mismatches;
  }

(* -- Traced ledger: svc / fed / net ------------------------------------------ *)

let counter ms name =
  List.fold_left
    (fun a m ->
      match Telemetry.find_counter (Svc.telemetry m.engine) name with
      | Some c -> a + Telemetry.counter_value c
      | None -> a)
    0 ms

(* Mean host microseconds per step over a window of [w] steps ending at
   step [last]. *)
let window_us m ~last ~w =
  let start = if last - w < 0 then m.t0 else m.ends.(last - w) in
  1e6 *. (m.ends.(last) -. start) /. float_of_int w

(* The ledger reads one untraced round: the per-step clock it needs is
   already part of every services run. To keep a traced run short it runs
   each deployment at [seed] only. *)
let ledger (cfg : Probe.cfg) =
  let ms = round cfg (runs [ cfg.Probe.seed ]) in
  let n = steps cfg in
  let w = min 1000 (n / 4) in
  let mean f = List.fold_left (fun a m -> a +. f m) 0.0 ms /. float_of_int (List.length ms) in
  let first = mean (fun m -> window_us m ~last:(w - 1) ~w) in
  let last = mean (fun m -> window_us m ~last:(n - 1) ~w) in
  let step_s = List.fold_left (fun a m -> a +. (m.ends.(n - 1) -. m.t0)) 0.0 ms in
  let finish_s = List.fold_left (fun a m -> a +. m.finish_s) 0.0 ms in
  let link f = List.fold_left (fun a m -> a + f (Net.link_stats (Fed.net (Svc.fed m.engine)))) 0 ms in
  let net_latency = Telemetry.create () in
  List.iter (fun m -> Telemetry.merge ~into:net_latency (Net.telemetry (Fed.net (Svc.fed m.engine)))) ms;
  let lat = Telemetry.histogram net_latency "net.latency.steps" in
  let steps_rtt = rtt_steps ms in
  {
    Probe.layer_metrics =
      [
        Probe.metric "svc.step_us" "us" (1e6 *. step_s /. float_of_int (n * List.length ms));
        Probe.metric "svc.finish_s" "s" (finish_s /. float_of_int (List.length ms))
          ~note:"mean Svc.finish (drain and audit) per run";
        Probe.count "svc.retries" (counter ms "svc.retries");
        Probe.count "svc.timeouts" (counter ms "svc.timeouts");
        Probe.count "svc.dedup_hits" (counter ms "svc.dedup_hits");
        Probe.count "svc.shed" (counter ms "svc.shed");
        Probe.metric "svc.rtt_steps_p50" "steps" (Stats.percentile 50.0 steps_rtt);
        Probe.metric "svc.rtt_steps_p95" "steps" (Stats.percentile 95.0 steps_rtt);
        Probe.metric "fed.step_us_first" "us" first ~note:(Fmt.str "mean over the first %d steps" w);
        Probe.metric "fed.step_us_last" "us" last ~note:(Fmt.str "mean over the last %d steps" w);
        Probe.metric "fed.step_growth" "ratio" (Probe.ratio last first);
        Probe.count "fed.delivered" (delivered ms);
        Probe.metric "fed.words_per_sec" "1/s" (Probe.ratio (float_of_int (delivered ms)) (wall ms));
        Probe.count "net.retransmits" (link (fun s -> s.Net.ls_retransmits));
        Probe.count "net.acks" (link (fun s -> s.Net.ls_acks));
        Probe.metric "net.latency_steps_p50" "steps" (Telemetry.p50 lat);
        Probe.metric "net.latency_steps_p95" "steps" (Telemetry.p95 lat);
      ];
    group_attempted = requests ms;
    group_failed = bad ms;
    group_mismatches = List.concat_map check ms;
    residual_frac = Probe.ratio (wall ms -. step_s -. finish_s) (wall ms);
    overhead_frac = 0.0;
  }
