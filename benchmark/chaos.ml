(* Workload [chaos]: the service chaos campaign for all four deployments
   plus the kernel recovery campaign, sharded over [Par] on
   [Par.default_jobs ()] domains.
   It uses the fed/svc/sue layers differently from [services]: many
   short, freshly built, fault-ridden runs (failover, retries, restarts).
   A gain in long-run steady state that costs build or failover time
   shows up here, and this is the only workload that exercises [par]. *)

module Svc = Sep_svc.Svc
module Svc_campaign = Sep_svc.Svc_campaign
module Campaign = Sep_robust.Campaign
module Telemetry = Sep_obs.Telemetry
module Stats = Sep_util.Stats
module Par = Sep_par.Par

(* A smoke run keeps the directed plans only, at the shortest length
   [Fault_plan] accepts. *)
let svc_steps (cfg : Probe.cfg) = if cfg.Probe.smoke then 256 else 2500

(* The traced ledger runs its two rounds at half length, so that a traced
   run, which measures every layer group, stays under 30 s. *)
let ledger_svc_steps cfg = max 256 (svc_steps cfg / 2)
let soak_plans (cfg : Probe.cfg) = if cfg.Probe.smoke then 0 else 6
let recovery_steps (cfg : Probe.cfg) = if cfg.Probe.smoke then 50 else 200
let recovery_count (cfg : Probe.cfg) = if cfg.Probe.smoke then 20 else 400

type round = {
  svc : (Svc_campaign.report * float) list;
  recovery : Campaign.report * float;
  digest : string;  (* of every JSONL report, in order *)
}

let round (cfg : Probe.cfg) ~jobs ~steps =
  let svc =
    List.map
      (fun dep ->
        let t0 = Probe.now () in
        let r = Svc_campaign.run ~jobs ~soak:(soak_plans cfg) ~seed:cfg.Probe.seed ~steps dep in
        (r, Probe.since t0))
      Sep_apps.Fed_services.all
  in
  let t0 = Probe.now () in
  let rc =
    Campaign.run_recovery ~jobs ~seed:cfg.Probe.seed ~steps:(recovery_steps cfg) ~count:(recovery_count cfg) ()
  in
  let recovery = (rc, Probe.since t0) in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "" (List.map (fun (r, _) -> Svc_campaign.report_to_jsonl r) svc @ [ Campaign.report_to_jsonl rc ])))
  in
  { svc; recovery; digest }

let seconds r = List.fold_left (fun a (_, s) -> a +. s) (snd r.recovery) r.svc

let cases r =
  List.fold_left (fun a (s, _) -> a + List.length s.Svc_campaign.sv_cases) 0 r.svc
  + List.fold_left (fun a s -> a + List.length s.Campaign.cases) 0 (fst r.recovery).Campaign.rp_scenarios

(* (masked, detected-safe, recovered-safe, violating) over both campaigns *)
let totals r =
  List.fold_left
    (fun (m, d, rc, v) (s, _) ->
      let m', d', rc', v' = Svc_campaign.totals s in
      (m + m', d + d', rc + rc', v + v'))
    (Campaign.totals (fst r.recovery))
    r.svc

let check r =
  List.filter_map
    (fun (s, _) ->
      if Svc_campaign.holds s then None
      else Some (Fmt.str "chaos %s: a case violated separation or the service contract" s.Svc_campaign.sv_name))
    r.svc
  @ if Campaign.holds (fst r.recovery) then [] else [ "chaos recovery: a case is separation-violating" ]

let run (cfg : Probe.cfg) =
  let jobs = Par.default_jobs () in
  (* The campaigns build everything themselves, so the set-up is the
     fixed cost each case pays: one monitored engine per deployment, and
     its spec and directed plans. *)
  let setup () =
    List.map
      (fun dep ->
        ignore (Sys.opaque_identity (Svc.build ~monitor:true ~seed:cfg.Probe.seed dep));
        (Svc.spec_of dep, Svc_campaign.directed dep ~steps:(svc_steps cfg)))
      Sep_apps.Fed_services.all
  in
  let steps = svc_steps cfg in
  let warm = if cfg.Probe.smoke then [] else [ round cfg ~jobs ~steps ] in
  let setup_s, timed = Probe.rounds cfg ~setup (fun () -> round cfg ~jobs ~steps) in
  let all = warm @ timed in
  let reference = (List.hd all).digest in
  let mismatches =
    List.concat_map check all
    @ List.filter_map
        (fun r ->
          if r.digest = reference then None
          else Some (Fmt.str "chaos: JSONL digest %s differs from round 1's %s" r.digest reference))
        all
  in
  let rate = Stats.percentile 50.0 (List.map (fun r -> Probe.ratio (float_of_int (cases r)) (seconds r)) timed) in
  let per_campaign = List.map (fun r -> List.map (fun s -> 1000.0 *. s) (snd r.recovery :: List.map snd r.svc)) timed in
  let note = Fmt.str "host ms for one campaign, 5 campaigns (4 service, 1 recovery), each the median of %d rounds"
      (List.length timed) in
  {
    Probe.metrics =
      [
        Probe.metric "setup_s" "s" setup_s
          ~note:"one monitored build, spec and directed plans per deployment; median of the samples between rounds";
        Probe.metric "work_per_s" "1/s" rate
          ~note:(Fmt.str "fault cases replayed per host s, median of %d rounds" (List.length timed));
        Probe.metric "latency_ms_p50" "ms" (Probe.answer_percentile 50.0 per_campaign) ~note;
        Probe.metric "latency_ms_p95" "ms" (Probe.answer_percentile 95.0 per_campaign) ~note;
      ];
    info =
      [
        Probe.metric "chaos.campaign_s" "s" (Stats.percentile 50.0 (List.map seconds timed))
          ~note:(Fmt.str "host s per round at -j %d, median of %d rounds" jobs (List.length timed));
        Probe.count "chaos.cases" (cases (List.hd all));
      ];
    attempted = List.fold_left (fun a r -> a + cases r) 0 all;
    failed = List.fold_left (fun a r -> let _, _, _, v = totals r in a + v) 0 all;
    mismatches;
  }

(* -- Traced ledger: par / recover -------------------------------------------- *)

let par_counter name =
  match Telemetry.find_counter Par.registry name with
  | Some c -> Telemetry.counter_value c
  | None -> 0

(* The [-j jobs] round is untraced: [Par.registry] counts every run. The
   traced addition is the [-j 1] round, for the speed-up and the
   determinism oracle. *)
let ledger (cfg : Probe.cfg) =
  let jobs = Par.default_jobs () in
  let tasks0 = par_counter "par.tasks" and merge0 = par_counter "par.merge_ns" in
  let t0 = Probe.now () in
  let steps = ledger_svc_steps cfg in
  let rn = round cfg ~jobs ~steps in
  let wall = Probe.since t0 in
  let tasks = par_counter "par.tasks" - tasks0 and merge_ns = par_counter "par.merge_ns" - merge0 in
  let r1 = round cfg ~jobs:1 ~steps in
  let m, d, rc, v = totals rn in
  let mismatches =
    check rn @ check r1
    @
    if rn.digest = r1.digest then []
    else [ Fmt.str "chaos: JSONL digest at -j %d (%s) differs from -j 1 (%s)" jobs rn.digest r1.digest ]
  in
  let speedup =
    if jobs > 1 then Some (Probe.ratio (seconds r1) (seconds rn)) else None
  in
  {
    Probe.layer_metrics =
      [
        Probe.count "par.jobs" jobs ~note:"domains the campaigns ran on: Domain.recommended_domain_count ()";
        Probe.count "par.tasks" tasks;
        Probe.metric "par.merge_ns" "ns" (float_of_int merge_ns);
        { Probe.name = "par.speedup"; value = speedup; unit_ = "ratio";
          note = "-j 1 round over -j jobs round; null when jobs = 1 (not measured)" };
        Probe.metric "chaos.svc_campaign_s" "s" (List.fold_left (fun a (_, s) -> a +. s) 0.0 rn.svc);
        Probe.metric "chaos.recovery_campaign_s" "s" (snd rn.recovery);
        Probe.count "chaos.masked" m;
        Probe.count "chaos.detected_safe" d;
        Probe.count "chaos.recovered_safe" rc;
        Probe.count "chaos.violating" v;
        Probe.count "fed.node_events"
          (List.fold_left
             (fun a (s, _) ->
               List.fold_left (fun a c -> a + c.Svc_campaign.sc_node_events) a s.Svc_campaign.sv_cases)
             0 rn.svc);
        Probe.count "fed.recoveries"
          (List.fold_left (fun a (s, _) -> let _, _, rc, _ = Svc_campaign.totals s in a + rc) 0 rn.svc)
          ~note:"service cases in which the federation rebooted or rejoined a shard";
      ];
    group_attempted = cases rn + cases r1;
    group_failed = v + (let _, _, _, v1 = totals r1 in v1);
    group_mismatches = mismatches;
    residual_frac = Probe.ratio (wall -. seconds rn) wall;
    overhead_frac = 0.0;
  }
