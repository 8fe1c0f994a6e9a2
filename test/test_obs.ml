(* Tests for the observability layer: Sep_util.Json, Sep_obs (telemetry,
   spans, sinks), kernel counters and Ktrace JSON. *)

module Json = Sep_util.Json
module Telemetry = Sep_obs.Telemetry
module Span = Sep_obs.Span
module Sink = Sep_obs.Sink
module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* -- Json ------------------------------------------------------------------ *)

let roundtrip v =
  match Json.parse (Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "parse error on %s: %s" (Json.to_string v) e

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("string", Json.String "esc \"quotes\" \\ slash \n tab \t unicode \xc3\xa9");
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.List [ Json.Obj [ ("k", Json.Int 1) ] ]);
      ]
  in
  Alcotest.(check bool) "writer and parser agree" true (Json.equal v (roundtrip v))

let test_json_parse_standard () =
  (match Json.parse {| { "a" : [ 1, 2.5, -3e2, "é", true, null ] } |} with
  | Error e -> Alcotest.fail e
  | Ok v -> (
    match Json.member "a" v with
    | Some (Json.List [ Json.Int 1; Json.Float 2.5; Json.Float f; Json.String s; Json.Bool true; Json.Null ])
      ->
      check (Alcotest.float 1e-9) "exponent" (-300.) f;
      check Alcotest.string "\\u escape decodes to UTF-8" "\xc3\xa9" s
    | _ -> Alcotest.fail "unexpected shape"));
  (match Json.parse "{} garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing input must be rejected")

let test_json_nonfinite () =
  check Alcotest.string "nan renders null" "null" (Json.to_string (Json.Float Float.nan))

(* Supplementary-plane escapes arrive as UTF-16 surrogate pairs; the
   parser must combine them into one code point and reject lone halves. *)
let test_json_surrogate_pairs () =
  (match Json.parse {| "\uD83D\uDE00" |} with
  | Ok (Json.String s) ->
    check Alcotest.string "U+1F600 as 4-byte UTF-8" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  (match Json.parse {| "\uD801\uDC37" |} with
  | Ok (Json.String s) -> check Alcotest.string "U+10437" "\xf0\x90\x90\xb7" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  (* the writer escapes nothing above ASCII, so the pair round-trips as
     raw UTF-8 through to_string -> parse *)
  (match Json.parse {| "\uD83D\uDE00" |} with
  | Ok v -> Alcotest.(check bool) "round-trip" true (Json.equal v (roundtrip v))
  | Error e -> Alcotest.fail e)

let test_json_lone_surrogates_rejected () =
  let rejected s = match Json.parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "lone high surrogate" true (rejected {| "\uD83D" |});
  Alcotest.(check bool) "high surrogate then text" true (rejected {| "\uD83Dx" |});
  Alcotest.(check bool) "high then non-surrogate escape" true (rejected {| "\uD83DA" |});
  Alcotest.(check bool) "lone low surrogate" true (rejected {| "\uDE00" |});
  Alcotest.(check bool) "low before high" true (rejected {| "\uDE00\uD83D" |});
  Alcotest.(check bool) "BMP escape still fine" false (rejected {| "\u0041" |})

let json_int_roundtrip =
  QCheck.Test.make ~name:"json int roundtrip" ~count:200 QCheck.int (fun n ->
      Json.equal (Json.Int n) (roundtrip (Json.Int n)))

(* -- Telemetry: counters and gauges ---------------------------------------- *)

let test_counter_semantics () =
  let reg = Telemetry.create () in
  let c = Telemetry.counter reg "c" in
  Telemetry.incr c;
  Telemetry.incr ~by:41 c;
  check Alcotest.int "accumulates" 42 (Telemetry.counter_value c);
  check Alcotest.int "same name, same counter" 42
    (Telemetry.counter_value (Telemetry.counter reg "c"));
  let g = Telemetry.gauge reg "g" in
  Telemetry.set g 1.0;
  Telemetry.set g 2.5;
  check (Alcotest.float 0.) "gauge keeps last value" 2.5 (Telemetry.gauge_value g);
  (match Telemetry.gauge reg "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must raise");
  Telemetry.reset reg;
  check Alcotest.int "reset zeroes" 0 (Telemetry.counter_value c)

(* -- Telemetry: histogram quantiles ---------------------------------------- *)

(* Log buckets with gamma = 2^(1/4) guarantee <= ~9% relative error on any
   quantile; check against a known distribution with a safety margin. *)
let test_histogram_quantiles () =
  let reg = Telemetry.create () in
  let h = Telemetry.histogram reg "h" in
  for i = 1 to 1000 do
    Telemetry.observe h (float_of_int i /. 1000.)
  done;
  check Alcotest.int "count" 1000 (Telemetry.count h);
  check (Alcotest.float 1.) "sum" 500.5 (Telemetry.sum h);
  check (Alcotest.float 1e-12) "min exact" 0.001 (Telemetry.hist_min h);
  check (Alcotest.float 1e-12) "max exact" 1.0 (Telemetry.hist_max h);
  List.iter
    (fun (p, exact) ->
      let q = Telemetry.quantile h p in
      let rel = Float.abs (q -. exact) /. exact in
      if rel > 0.10 then
        Alcotest.failf "p%.0f: estimate %.4f vs exact %.4f (rel err %.3f)" (100. *. p) q exact rel)
    [ (0.5, 0.5); (0.9, 0.9); (0.99, 0.99); (1.0, 1.0) ];
  Alcotest.(check bool) "quantiles stay within observed range" true
    (Telemetry.quantile h 1.0 <= Telemetry.hist_max h
    && Telemetry.quantile h 0.0 >= Telemetry.hist_min h);
  check (Alcotest.float 0.) "empty histogram quantile" 0.
    (Telemetry.quantile (Telemetry.histogram reg "empty") 0.5)

(* -- Telemetry: merge ------------------------------------------------------ *)

let fill seed reg =
  let prng = Sep_util.Prng.create seed in
  let c = Telemetry.counter reg "c" in
  Telemetry.incr ~by:(Sep_util.Prng.int prng 100) c;
  Telemetry.set (Telemetry.gauge reg "g") (float_of_int seed);
  let h = Telemetry.histogram reg "h" in
  for _ = 1 to 50 do
    Telemetry.observe h (float_of_int (1 + Sep_util.Prng.int prng 1000) /. 997.)
  done;
  reg

let snapshot reg = Json.to_string (Telemetry.to_json reg)

let test_merge_associative () =
  let make () = List.map (fun s -> fill s (Telemetry.create ())) [ 1; 2; 3 ] in
  (* (a <- b) <- c *)
  let left =
    match make () with
    | [ a; b; c ] ->
      Telemetry.merge ~into:a b;
      Telemetry.merge ~into:a c;
      snapshot a
    | _ -> assert false
  in
  (* a <- (b <- c) *)
  let right =
    match make () with
    | [ a; b; c ] ->
      Telemetry.merge ~into:b c;
      Telemetry.merge ~into:a b;
      snapshot a
    | _ -> assert false
  in
  check Alcotest.string "merge associates" left right;
  (* merging into an empty registry is the identity on the source *)
  let empty = Telemetry.create () in
  Telemetry.merge ~into:empty (fill 1 (Telemetry.create ()));
  check Alcotest.string "empty is left identity" (snapshot (fill 1 (Telemetry.create ())))
    (snapshot empty)

(* -- Telemetry: JSON snapshot shape ---------------------------------------- *)

let test_snapshot_shape () =
  let reg = fill 7 (Telemetry.create ()) in
  let v = roundtrip (Telemetry.to_json reg) in
  (match Json.member "counters" v with
  | Some (Json.Obj [ ("c", Json.Int _) ]) -> ()
  | _ -> Alcotest.fail "counters section");
  (match Json.member "gauges" v with
  | Some (Json.Obj [ ("g", Json.Float 7.) ]) -> ()
  | _ -> Alcotest.fail "gauges section");
  match Json.member "histograms" v with
  | Some (Json.Obj [ ("h", stats) ]) ->
    List.iter
      (fun k ->
        if Json.member k stats = None then Alcotest.failf "histogram stat %s missing" k)
      [ "count"; "sum"; "min"; "max"; "mean"; "p50"; "p90"; "p99" ]
  | _ -> Alcotest.fail "histograms section"

(* -- Telemetry: fixed quantile accessors ------------------------------------ *)

let test_quantile_accessors () =
  let reg = Telemetry.create () in
  let h = Telemetry.histogram reg "h" in
  for i = 1 to 1000 do
    Telemetry.observe h (float_of_int i)
  done;
  List.iter
    (fun (name, accessor, p) ->
      check (Alcotest.float 0.) name (Telemetry.quantile h p) (accessor h))
    [
      ("p50 = quantile 0.5", Telemetry.p50, 0.5);
      ("p95 = quantile 0.95", Telemetry.p95, 0.95);
      ("p99 = quantile 0.99", Telemetry.p99, 0.99);
    ];
  let v = roundtrip (Telemetry.to_json reg) in
  match Json.member "histograms" v with
  | Some (Json.Obj [ ("h", stats) ]) ->
    if Json.member "p95" stats = None then Alcotest.fail "p95 missing from snapshot"
  | _ -> Alcotest.fail "histograms section"

(* -- Trace: the flight recorder --------------------------------------------- *)

module Trace = Sep_obs.Trace

let with_trace ?(capacity = 64) f =
  Trace.set_capacity capacity;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_capacity 4096)
    f

let test_trace_disabled_records_nothing () =
  Trace.set_enabled false;
  Trace.clear ();
  Trace.instant ~cat:"t" "nope";
  check Alcotest.int "flow id is 0 while disabled" 0 (Trace.flow_start ~cat:"t" "nope");
  check Alcotest.int "nothing recorded" 0 (List.length (Trace.recorded ()))

let test_trace_ring_wraparound () =
  with_trace ~capacity:16 @@ fun () ->
  for i = 1 to 40 do
    Trace.instant ~cat:"t" ~args:[ ("i", Json.Int i) ] "tick"
  done;
  let events = Trace.recorded () in
  check Alcotest.int "ring keeps the last capacity events" 16 (List.length events);
  check Alcotest.int "all offered events counted" 40 (Trace.seen ());
  (* oldest first, contiguous, and ending at the newest emission *)
  let seqs = List.map (fun e -> e.Trace.seq) events in
  check (Alcotest.list Alcotest.int) "the suffix survives" (List.init 16 (fun i -> 24 + i)) seqs

let test_trace_flow_edges () =
  with_trace @@ fun () ->
  let id = Trace.flow_start ~cat:"net" "send" in
  Alcotest.(check bool) "flow id is nonzero" true (id <> 0);
  Trace.flow_end ~cat:"net" ~id "deliver";
  match Trace.recorded () with
  | [ s; f ] ->
    Alcotest.(check bool) "phases" true
      (s.Trace.phase = Trace.Flow_start && f.Trace.phase = Trace.Flow_end);
    check Alcotest.int "edge shares the id" s.Trace.id f.Trace.id
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_trace_chrome_export () =
  with_trace @@ fun () ->
  Trace.emit ~cat:"par" ~phase:Trace.Begin "task";
  Trace.instant ~cat:"sue" ~args:[ ("colour", Json.String "RED") ] "step";
  Trace.emit ~cat:"par" ~phase:Trace.End "task";
  match Json.parse (Trace.chrome_string ()) with
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
  | Ok v -> (
    match Json.member "traceEvents" v with
    | Some (Json.List evs) ->
      check Alcotest.int "three events" 3 (List.length evs);
      let ph e = match Json.member "ph" e with Some (Json.String p) -> p | _ -> "?" in
      check (Alcotest.list Alcotest.string) "chrome phases" [ "B"; "i"; "E" ] (List.map ph evs);
      List.iter
        (fun e ->
          List.iter
            (fun k -> if Json.member k e = None then Alcotest.failf "field %s missing" k)
            [ "name"; "cat"; "ts"; "pid"; "tid" ])
        evs
    | _ -> Alcotest.fail "traceEvents missing")

(* A kernel panic must flush the flight recorder: the dump ends with the
   panic marker and retains the causally preceding events. *)
let test_trace_dump_on_panic () =
  with_trace ~capacity:256 @@ fun () ->
  let dumps = ref [] in
  Trace.on_dump (fun reason events -> dumps := (reason, events) :: !dumps);
  let scenario = Sep_core.Scenarios.pipeline in
  let t = Sep_core.Sue.build ~impl:Sep_core.Sue.Assembly scenario.Sep_core.Scenarios.cfg in
  let m = Sep_core.Sue.machine t in
  let code_base, code_len = Sep_core.Sue.kernel_code_region t in
  for a = code_base to code_base + code_len - 1 do
    Sep_hw.Machine.write_phys m a 0xffff
  done;
  for _ = 1 to 30 do
    ignore (Sep_core.Ktrace.step t [])
  done;
  Alcotest.(check bool) "kernel panicked" true
    ((Sep_core.Sue.kstats t).Sep_core.Sue.ks_panics >= 1);
  match !dumps with
  | [] -> Alcotest.fail "panic did not dump the flight recorder"
  | (reason, events) :: _ ->
    Alcotest.(check bool) "reason names the panic" true
      (String.length reason >= 12 && String.sub reason 0 12 = "kernel-panic");
    Alcotest.(check bool) "preceding kernel steps retained" true
      (List.exists (fun e -> e.Trace.cat = "sue" && e.Trace.name = "step") events);
    match Trace.last_dump () with
    | Some (r, _) -> check Alcotest.string "last_dump agrees" reason r
    | None -> Alcotest.fail "last_dump empty after a dump"

(* -- Span ------------------------------------------------------------------ *)

let test_span_gating () =
  Span.reset ();
  Span.set_enabled false;
  check Alcotest.int "disabled spans record nothing" 0
    (Span.with_ ~name:"t" (fun () -> 0));
  let h = Telemetry.histogram Span.registry "span.t" in
  check Alcotest.int "no observation while off" 0 (Telemetry.count h);
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) @@ fun () ->
  check Alcotest.int "result passes through" 41 (Span.with_ ~name:"t" (fun () -> 41));
  (try Span.with_ ~name:"t" (fun () -> failwith "boom") with Failure _ -> 0) |> ignore;
  check Alcotest.int "timed twice, also on raise" 2 (Telemetry.count h);
  Span.reset ();
  check Alcotest.int "reset zeroes" 0 (Telemetry.count h)

(* -- Sink ------------------------------------------------------------------ *)

let test_sink_jsonl () =
  let buf = Buffer.create 64 in
  let sink = Sink.of_buffer buf in
  Sink.emit sink (Json.Obj [ ("a", Json.Int 1) ]);
  Sink.emit sink (Json.Obj [ ("b", Json.Int 2) ]);
  check Alcotest.int "two lines emitted" 2 (Sink.emitted sink);
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  (match lines with
  | [ l1; l2; "" ] ->
    List.iter
      (fun l ->
        match Json.parse l with
        | Ok (Json.Obj _) -> ()
        | _ -> Alcotest.failf "line is not a JSON object: %s" l)
      [ l1; l2 ]
  | _ -> Alcotest.fail "JSONL framing: one object per line, trailing newline");
  check Alcotest.bool "lines are compact (no embedded newline)" false
    (String.contains (List.nth lines 0) '\n')

(* -- Kernel counters ------------------------------------------------------- *)

let test_sue_kstats () =
  let scenario = Sep_core.Scenarios.pipeline in
  let t = Sep_core.Sue.build scenario.Sep_core.Scenarios.cfg in
  for _ = 1 to 500 do
    ignore (Sep_core.Sue.step t [])
  done;
  let s = Sep_core.Sue.kstats t in
  let total l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  Alcotest.(check bool) "instructions retired" true (total s.Sep_core.Sue.ks_instrs > 0);
  Alcotest.(check bool) "traps serviced" true (total s.Sep_core.Sue.ks_traps > 0);
  Alcotest.(check bool) "voluntary yields" true (total s.Sep_core.Sue.ks_swaps > 0);
  Alcotest.(check bool) "context switches" true (s.Sep_core.Sue.ks_switches > 0);
  let reg = Sep_core.Sue.telemetry t in
  (match Telemetry.find_counter reg "sue.instrs.RED" with
  | Some c -> Alcotest.(check bool) "telemetry mirrors kstats" true (Telemetry.counter_value c > 0)
  | None -> Alcotest.fail "per-regime counter sue.instrs.RED missing");
  Sep_core.Sue.reset_kstats t;
  let z = Sep_core.Sue.kstats t in
  check Alcotest.int "reset zeroes instrs" 0 (total z.Sep_core.Sue.ks_instrs);
  check Alcotest.int "reset zeroes switches" 0 z.Sep_core.Sue.ks_switches

let test_sue_kstats_shared_by_copy () =
  let scenario = Sep_core.Scenarios.pipeline in
  let t = Sep_core.Sue.build scenario.Sep_core.Scenarios.cfg in
  let t' = Sep_core.Sue.copy t in
  for _ = 1 to 100 do
    ignore (Sep_core.Sue.step t' [])
  done;
  let s = Sep_core.Sue.kstats t in
  let total l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  Alcotest.(check bool) "copies share one tally" true (total s.Sep_core.Sue.ks_instrs > 0)

(* -- Ktrace JSON ----------------------------------------------------------- *)

let all_event_samples =
  Sep_core.Ktrace.
    [
      ("executed", Executed { colour = Colour.red; pc = 3; instr = Isa.Nop });
      ("trapped", Trapped { colour = Colour.red; number = 1 });
      ("switched", Switched { from_ = Colour.red; to_ = Colour.black });
      ("blocked", Blocked Colour.black);
      ("parked", Parked Colour.green);
      ("woken", Woken Colour.red);
      ("arrived", Arrived { device = 0; word = 0xBEEF });
      ("emitted", Emitted { device = 1; word = 7 });
      ("stalled", Stalled);
    ]

let test_ktrace_event_json () =
  (* every constructor serializes, parses back, and carries its tag *)
  List.iter
    (fun (tag, ev) ->
      let v = roundtrip (Sep_core.Ktrace.event_to_json ev) in
      match Json.member "type" v with
      | Some (Json.String t) -> check Alcotest.string "type tag" tag t
      | _ -> Alcotest.failf "event %s: missing type tag" tag)
    all_event_samples

let test_ktrace_to_json () =
  let entries =
    [
      { Sep_core.Ktrace.step = 0; events = List.map snd all_event_samples };
      { Sep_core.Ktrace.step = 5; events = [ Sep_core.Ktrace.Stalled ] };
    ]
  in
  let lines =
    Sep_core.Ktrace.to_json entries |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per entry" 2 (List.length lines);
  List.iter2
    (fun line entry ->
      match Json.parse line with
      | Ok v -> (
        (match Json.member "step" v with
        | Some (Json.Int n) -> check Alcotest.int "step" entry.Sep_core.Ktrace.step n
        | _ -> Alcotest.fail "step field");
        match Json.member "events" v with
        | Some (Json.List evs) ->
          check Alcotest.int "event count" (List.length entry.Sep_core.Ktrace.events)
            (List.length evs)
        | _ -> Alcotest.fail "events field")
      | Error e -> Alcotest.fail e)
    lines entries

(* -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse standard" `Quick test_json_parse_standard;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogate_pairs;
          Alcotest.test_case "lone surrogates rejected" `Quick test_json_lone_surrogates_rejected;
          qtest json_int_roundtrip;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counter and gauge semantics" `Quick test_counter_semantics;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "merge associativity" `Quick test_merge_associative;
          Alcotest.test_case "snapshot shape" `Quick test_snapshot_shape;
          Alcotest.test_case "quantile accessors" `Quick test_quantile_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled recorder is inert" `Quick test_trace_disabled_records_nothing;
          Alcotest.test_case "ring wraparound" `Quick test_trace_ring_wraparound;
          Alcotest.test_case "flow edges" `Quick test_trace_flow_edges;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
          Alcotest.test_case "dump on kernel panic" `Quick test_trace_dump_on_panic;
        ] );
      ( "span",
        [ Alcotest.test_case "gating and exception safety" `Quick test_span_gating ] );
      ("sink", [ Alcotest.test_case "jsonl framing" `Quick test_sink_jsonl ]);
      ( "sue",
        [
          Alcotest.test_case "kernel counters" `Quick test_sue_kstats;
          Alcotest.test_case "counters shared by copy" `Quick test_sue_kstats_shared_by_copy;
        ] );
      ( "ktrace",
        [
          Alcotest.test_case "every event constructor" `Quick test_ktrace_event_json;
          Alcotest.test_case "jsonl entries" `Quick test_ktrace_to_json;
        ] );
    ]
