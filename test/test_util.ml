(* Tests for Sep_util: PRNG, bounded FIFO, bit codecs, statistics, tables,
   JSON round-trips. *)

module Prng = Sep_util.Prng
module Fifo = Sep_util.Fifo
module Bits = Sep_util.Bits
module Stats = Sep_util.Stats
module Table = Sep_util.Table
module Json = Sep_util.Json
module Gen = Sep_check.Gen

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* -- Prng ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  let stream g = List.init 50 (fun _ -> Prng.int g 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" (stream a) (stream b)

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let stream g = List.init 20 (fun _ -> Prng.int g 1_000_000) in
  Alcotest.(check bool) "different seeds differ" false (stream a = stream b)

let test_prng_copy_independent () =
  let a = Prng.create 3 in
  let b = Prng.copy a in
  let xs = List.init 10 (fun _ -> Prng.int a 100) in
  let ys = List.init 10 (fun _ -> Prng.int b 100) in
  check (Alcotest.list Alcotest.int) "copy replays" xs ys

let test_prng_split_diverges () =
  let a = Prng.create 9 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let prng_int_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prng_int_in_bounds =
  QCheck.Test.make ~name:"prng int_in stays in range" ~count:500
    QCheck.(triple small_int (int_range (-500) 500) (int_range 0 500))
    (fun (seed, lo, span) ->
      let g = Prng.create seed in
      let v = Prng.int_in g lo (lo + span) in
      v >= lo && v <= lo + span)

let test_prng_shuffle_permutes () =
  let g = Prng.create 11 in
  let arr = Array.init 30 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "shuffle keeps elements" (Array.init 30 Fun.id) sorted

let test_prng_bytes_length () =
  let g = Prng.create 5 in
  check Alcotest.int "bytes length" 17 (Bytes.length (Prng.bytes g 17))

let prng_float_bounds =
  QCheck.Test.make ~name:"prng float stays in bounds" ~count:200 QCheck.small_int (fun seed ->
      let g = Prng.create seed in
      let f = Prng.float g 2.5 in
      f >= 0.0 && f < 2.5)

(* -- Fifo ------------------------------------------------------------------ *)

let test_fifo_order () =
  let q = Fifo.create ~capacity:4 in
  List.iter (fun x -> assert (Fifo.push q x)) [ 1; 2; 3 ];
  check (Alcotest.list Alcotest.int) "to_list oldest first" [ 1; 2; 3 ] (Fifo.to_list q);
  check (Alcotest.option Alcotest.int) "pop oldest" (Some 1) (Fifo.pop q);
  check (Alcotest.option Alcotest.int) "peek next" (Some 2) (Fifo.peek q);
  check Alcotest.int "length after pop" 2 (Fifo.length q)

let test_fifo_capacity () =
  let q = Fifo.create ~capacity:2 in
  Alcotest.(check bool) "accepts 1st" true (Fifo.push q 1);
  Alcotest.(check bool) "accepts 2nd" true (Fifo.push q 2);
  Alcotest.(check bool) "rejects 3rd" false (Fifo.push q 3);
  Alcotest.(check bool) "is_full" true (Fifo.is_full q);
  ignore (Fifo.pop q);
  Alcotest.(check bool) "accepts after pop" true (Fifo.push q 3);
  check (Alcotest.list Alcotest.int) "order preserved" [ 2; 3 ] (Fifo.to_list q)

let test_fifo_clear_and_copy () =
  let q = Fifo.create ~capacity:3 in
  ignore (Fifo.push q 1);
  let q2 = Fifo.copy q in
  Fifo.clear q;
  Alcotest.(check bool) "cleared" true (Fifo.is_empty q);
  check Alcotest.int "copy untouched" 1 (Fifo.length q2)

(* Sustained pressure against a full FIFO: every surplus push is refused,
   nothing already queued is disturbed, and a copy taken under pressure
   stays an independent snapshot. *)
let test_fifo_sustained_pressure () =
  let q = Fifo.create ~capacity:3 in
  List.iter (fun x -> assert (Fifo.push q x)) [ 1; 2; 3 ];
  let refused = ref 0 in
  for x = 4 to 103 do
    if not (Fifo.push q x) then incr refused
  done;
  check Alcotest.int "every surplus push refused" 100 !refused;
  check (Alcotest.list Alcotest.int) "contents undisturbed" [ 1; 2; 3 ] (Fifo.to_list q);
  let snap = Fifo.copy q in
  ignore (Fifo.pop q);
  assert (Fifo.push q 99);
  check (Alcotest.list Alcotest.int) "snapshot unaffected by later traffic" [ 1; 2; 3 ]
    (Fifo.to_list snap);
  check (Alcotest.list Alcotest.int) "original drained and refilled" [ 2; 3; 99 ] (Fifo.to_list q);
  Alcotest.(check bool) "copy is full too" true (Fifo.is_full snap)

let fifo_model =
  QCheck.Test.make ~name:"fifo behaves like a bounded list" ~count:300
    QCheck.(pair (int_range 1 5) (small_list (option small_int)))
    (fun (cap, script) ->
      (* None = pop, Some x = push *)
      let q = Fifo.create ~capacity:cap in
      let model = ref [] in
      List.iter
        (fun step ->
          match step with
          | Some x ->
            let accepted = Fifo.push q x in
            let should = List.length !model < cap in
            if accepted <> should then QCheck.Test.fail_report "push acceptance mismatch";
            if accepted then model := !model @ [ x ]
          | None -> begin
            let popped = Fifo.pop q in
            match (!model, popped) with
            | [], None -> ()
            | m :: rest, Some v when v = m -> model := rest
            | _ -> QCheck.Test.fail_report "pop mismatch"
          end)
        script;
      Fifo.to_list q = !model)

(* -- Bits ------------------------------------------------------------------ *)

let bits_roundtrip =
  QCheck.Test.make ~name:"bytes -> bits -> bytes roundtrip" ~count:300 QCheck.string (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal (Bits.bytes_of_bits (Bits.bits_of_bytes b)) b)

let int_bits_roundtrip =
  QCheck.Test.make ~name:"int -> bits -> int roundtrip" ~count:300
    QCheck.(pair (int_range 0 61) (int_range 0 1_000_000))
    (fun (width, n) ->
      let n = n land ((1 lsl width) - 1) in
      Bits.bits_to_int (Bits.int_to_bits ~width n) = n)

let test_bits_msb_first () =
  check (Alcotest.list Alcotest.bool) "0x80 is MSB-first"
    [ true; false; false; false; false; false; false; false ]
    (Bits.bits_of_bytes (Bytes.of_string "\x80"))

let test_popcount () =
  check Alcotest.int "popcount 0" 0 (Bits.popcount 0);
  check Alcotest.int "popcount 0xff" 8 (Bits.popcount 0xff);
  check Alcotest.int "popcount 0b1010" 2 (Bits.popcount 0b1010)

let test_parity () =
  Alcotest.(check bool) "parity of odd ones" true (Bits.parity [ true; false; true; true ]);
  Alcotest.(check bool) "parity of even ones" false (Bits.parity [ true; true ]);
  Alcotest.(check bool) "parity of empty" false (Bits.parity [])

(* -- Stats ----------------------------------------------------------------- *)

let test_stats_basics () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean xs);
  check (Alcotest.float 1e-9) "total" 10.0 (Stats.total xs);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.minimum xs);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.maximum xs);
  check (Alcotest.float 1e-6) "stddev" (sqrt 1.25) (Stats.stddev xs)

let test_stats_edge () =
  check (Alcotest.float 1e-9) "mean of empty" 0.0 (Stats.mean []);
  check (Alcotest.float 1e-9) "stddev of singleton" 0.0 (Stats.stddev [ 42.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile 100.0 xs);
  check (Alcotest.float 1e-9) "p1" 1.0 (Stats.percentile 1.0 xs)

(* -- Table ----------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "xxx"; "y" ];
  Table.add_row t [ "z" ];
  let out = Table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0 && String.sub out 0 6 = "== t =");
  let lines = String.split_on_char '\n' out in
  (* title, header, rule, 2 rows, trailing "" after the final newline *)
  check Alcotest.int "line count" 6 (List.length lines)

let test_table_no_trailing_blanks () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "bb"; "c" ] in
  Table.add_row t [ "xxx"; "y"; "" ];
  Table.add_row t [ "z" ];
  Table.add_row t [ "u"; "v"; "w" ];
  List.iter
    (fun line ->
      let n = String.length line in
      if n > 0 && line.[n - 1] = ' ' then Alcotest.failf "line ends in a blank: %S" line)
    (String.split_on_char '\n' (Table.render t))

let test_table_too_many_cells () =
  let t = Table.create ~title:"t" ~columns:[ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "1"; "2" ])

(* -- Json round-trips -------------------------------------------------------- *)

let reparse ctx s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s does not parse back: %s" ctx s e

(* print -> parse -> print is a fixpoint on generated values: one hop may
   normalise (e.g. escape forms), after which the text is stable. *)
let json_roundtrip_fuzz () =
  for seed = 1 to 300 do
    let j = Gen.run ~seed (Gen.json ()) in
    let s = Json.to_string j in
    let s' = Json.to_string (reparse (Fmt.str "seed %d" seed) s) in
    Alcotest.(check string) (Fmt.str "seed %d fixpoint" seed) s s'
  done

let json_utf8_strings () =
  for seed = 1 to 200 do
    let raw = Gen.run ~seed (Gen.utf8_string ~max_len:24) in
    let j = Json.String raw in
    let back = reparse (Fmt.str "seed %d" seed) (Json.to_string j) in
    Alcotest.(check bool) (Fmt.str "seed %d string survives" seed) true (Json.equal j back)
  done

let json_surrogate_pairs () =
  (* a supplementary-plane escape decodes to one UTF-8 code point and then
     round-trips as itself *)
  (match Json.parse {|"😀"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "surrogate pair decodes" "\xf0\x9f\x98\x80" s;
    let printed = Json.to_string (Json.String s) in
    Alcotest.(check bool) "and reprints equal" true
      (Json.equal (Json.String s) (reparse "surrogate" printed))
  | Ok j -> Alcotest.failf "expected a string, got %s" (Json.to_string j)
  | Error e -> Alcotest.failf "surrogate pair rejected: %s" e);
  (match Json.parse {|"\uD83D"|} with
  | Ok _ -> Alcotest.fail "lone surrogate accepted"
  | Error _ -> ())

let json_deep_nesting () =
  let deep = ref (Json.Int 7) in
  for i = 1 to 200 do
    deep := if i mod 2 = 0 then Json.List [ !deep ] else Json.Obj [ ("k", !deep) ]
  done;
  let s = Json.to_string !deep in
  Alcotest.(check bool) "200 levels round-trip" true (Json.equal !deep (reparse "deep" s));
  for seed = 1 to 40 do
    let j = Gen.run ~seed (Gen.json ~depth:8 ()) in
    let s = Json.to_string j in
    Alcotest.(check string)
      (Fmt.str "seed %d deep fixpoint" seed)
      s
      (Json.to_string (reparse (Fmt.str "deep seed %d" seed) s))
  done

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_prng_split_diverges;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "bytes length" `Quick test_prng_bytes_length;
          qtest prng_int_bounds;
          qtest prng_int_in_bounds;
          qtest prng_float_bounds;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "capacity" `Quick test_fifo_capacity;
          Alcotest.test_case "clear and copy" `Quick test_fifo_clear_and_copy;
          Alcotest.test_case "sustained pressure" `Quick test_fifo_sustained_pressure;
          qtest fifo_model;
        ] );
      ( "bits",
        [
          Alcotest.test_case "msb first" `Quick test_bits_msb_first;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "parity" `Quick test_parity;
          qtest bits_roundtrip;
          qtest int_bits_roundtrip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "edge cases" `Quick test_stats_edge;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "no trailing blanks" `Quick test_table_no_trailing_blanks;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "print-parse-print fixpoint" `Quick json_roundtrip_fuzz;
          Alcotest.test_case "utf8 strings survive" `Quick json_utf8_strings;
          Alcotest.test_case "surrogate pairs" `Quick json_surrogate_pairs;
          Alcotest.test_case "deep nesting" `Quick json_deep_nesting;
        ] );
    ]
