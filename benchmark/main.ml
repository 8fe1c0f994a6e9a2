(* The repository benchmark: four workloads, each doing most of its work in
   different layers, measured end to end with tracing off; and a separate
   traced run that wraps calls into each layer's public functions and
   reports a per-layer ledger. See README.md for every metric, its unit
   and bound, and which end-to-end metric each layer metric should move.

   dune exec benchmark/main.exe -- [--workload W] [--seed N] [--seconds S]
                                   [--traced | --trace 0|1] [--json FILE]
                                   [--smoke]

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. Any oracle mismatch is
   reported on standard error and makes the exit code 1. *)

module Json = Sep_util.Json

type workload = {
  name : string;
  run : Probe.cfg -> Probe.run;
  ledger : Probe.cfg -> Probe.group;
}

let workloads =
  [
    { name = "verify"; run = Verify.run; ledger = Verify.ledger };
    { name = "kernel"; run = Kernel.run; ledger = Kernel.ledger };
    { name = "services"; run = Services.run; ledger = Services.ledger };
    { name = "chaos"; run = Chaos.run; ledger = Chaos.ledger };
  ]

let usage =
  "usage: main.exe [--workload verify|kernel|services|chaos] [--seed N] [--seconds S]\n\
  \                [--traced | --trace 0|1] [--json FILE] [--smoke]"

type opts = {
  only : string option;
  seed : int;
  seconds : float;
  traced : bool;
  json : string option;
  smoke : bool;
}

let fail_usage msg =
  prerr_endline ("benchmark: " ^ msg);
  prerr_endline usage;
  exit 2

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if List.exists (fun wl -> wl.name = w) workloads then go { o with only = Some w } rest
      else fail_usage ("unknown workload " ^ w)
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n -> go { o with seed = n } rest
      | None -> fail_usage "--seed wants an integer")
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> go { o with seconds = f } rest
      | _ -> fail_usage "--seconds wants a positive number")
    | "--trace" :: ("0" | "1" as b) :: rest -> go { o with traced = b = "1" } rest
    | "--traced" :: rest -> go { o with traced = true } rest
    | "--json" :: f :: rest -> go { o with json = Some f } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | ("-h" | "--help") :: _ ->
      print_endline usage;
      exit 0
    | arg :: _ -> fail_usage ("unexpected argument " ^ arg)
  in
  go
    { only = None; seed = 42; seconds = 20.0; traced = false; json = None; smoke = false }
    (List.tl (Array.to_list argv))

(* -- Output ------------------------------------------------------------------- *)

let value_json = function Some v -> Json.Float v | None -> Json.Null

let metric_fields ?(prefix = "") ms =
  List.map
    (fun (m : Probe.metric) ->
      (prefix ^ m.Probe.name, Json.Obj [ ("value", value_json m.Probe.value); ("unit", Json.String m.Probe.unit_) ]))
    ms

let metrics_json ms = Json.Obj (metric_fields ms)

let print_metrics ms =
  List.iter
    (fun (m : Probe.metric) ->
      let v = match m.Probe.value with Some v -> Fmt.str "%.6g" v | None -> "null" in
      Fmt.pr "  %-38s %14s %-9s %s@." m.Probe.name v m.Probe.unit_ m.Probe.note)
    ms

(* -- Driver -------------------------------------------------------------------- *)

(* An untraced run measures the selected workloads. A traced run measures
   every layer group instead, whatever the workload, so that every traced
   run reports the whole per-layer metric set; each group runs its own
   untraced base, and the selected workloads add their residual and
   tracing overhead. *)
let main o =
  let cfg = { Probe.seed = o.seed; seconds = o.seconds; smoke = o.smoke } in
  let selected = List.filter (fun w -> o.only = None || o.only = Some w.name) workloads in
  let timed what f =
    let t0 = Probe.now () in
    let r = f () in
    Fmt.pr "%s (seed %d, jobs %d, %.1f s)@." what o.seed (Sep_par.Par.default_jobs ()) (Probe.since t0);
    r
  in
  let runs =
    if o.traced then []
    else
      List.map
        (fun w ->
          let r = timed ("workload " ^ w.name) (fun () -> w.run cfg) in
          print_metrics (r.Probe.metrics @ r.Probe.info);
          Fmt.pr "  attempted %d, failed %d@." r.Probe.attempted r.Probe.failed;
          (w, r))
        selected
  in
  let ledger =
    if not o.traced then []
    else
      List.map
        (fun w ->
          let g = timed ("traced " ^ w.name ^ " layers") (fun () -> w.ledger cfg) in
          print_metrics g.Probe.layer_metrics;
          (w, g))
        workloads
  in
  let own =
    List.filter_map
      (fun (w, (g : Probe.group)) ->
        if not (List.memq w selected) then None
        else begin
          let ms =
            [
              Probe.metric "layers.residual_frac" "frac" g.Probe.residual_frac
                ~note:"wall time not covered by this workload's layer timers";
              Probe.metric "trace.overhead_frac" "frac" g.Probe.overhead_frac
                ~note:"untraced over traced throughput, minus 1";
            ]
          in
          Fmt.pr "workload %s, traced@." w.name;
          print_metrics ms;
          Some (w, ms)
        end)
      ledger
  in
  let mismatches =
    List.concat_map (fun (_, r) -> r.Probe.mismatches) runs
    @ List.concat_map (fun (_, g) -> g.Probe.group_mismatches) ledger
  in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let attempted = sum (fun (_, r) -> r.Probe.attempted) runs + sum (fun (_, g) -> g.Probe.group_attempted) ledger in
  let failed = sum (fun (_, r) -> r.Probe.failed) runs + sum (fun (_, g) -> g.Probe.group_failed) ledger in
  let correct = mismatches = [] && failed = 0 in
  List.iter (fun m -> prerr_endline ("benchmark: oracle mismatch: " ^ m)) mismatches;
  let layer_metrics = List.concat_map (fun (_, g) -> g.Probe.layer_metrics) ledger in
  (* One workload: its metrics under their own names, as BENCHMARK.json
     lists them. Several: each workload's own metrics prefixed by its
     name. *)
  let reported =
    match (runs, own) with
    | [ (_, r) ], [] -> metric_fields r.Probe.metrics
    | [], [ (_, ms) ] -> metric_fields (layer_metrics @ ms)
    | _ ->
      metric_fields layer_metrics
      @ List.concat_map (fun (w, (r : Probe.run)) -> metric_fields ~prefix:(w.name ^ ".") r.Probe.metrics) runs
      @ List.concat_map (fun (w, ms) -> metric_fields ~prefix:(w.name ^ ".") ms) own
  in
  (match o.json with
  | None -> ()
  | Some file ->
    let run_json (w, (r : Probe.run)) =
      Json.Obj
        [
          ("name", Json.String w.name);
          ("attempted", Json.Int r.Probe.attempted);
          ("failed", Json.Int r.Probe.failed);
          ("mismatches", Json.List (List.map (fun m -> Json.String m) r.Probe.mismatches));
          ("metrics", metrics_json r.Probe.metrics);
          ("info", metrics_json r.Probe.info);
        ]
    in
    let doc =
      Json.Obj
        [
          ("seed", Json.Int o.seed);
          ("seconds", Json.Float o.seconds);
          ("jobs", Json.Int (Sep_par.Par.default_jobs ()));
          ("smoke", Json.Bool o.smoke);
          ("correct", Json.Bool correct);
          ("workloads", Json.List (List.map run_json runs));
          ("layers", metrics_json layer_metrics);
          ("traced", Json.Obj (List.map (fun (w, ms) -> (w.name, metrics_json ms)) own));
        ]
    in
    try Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string doc ^ "\n"))
    with Sys_error e ->
      prerr_endline ("benchmark: " ^ e);
      exit 1);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj reported);
          ]));
  exit (if correct then 0 else 1)

let () = main (parse Sys.argv)
