(* Tests for the two execution substrates and their equivalence (E7): the
   physically distributed network of boxes and the behavioural separation
   kernel must be indistinguishable to the hosted components. *)

module Colour = Sep_model.Colour
module Component = Sep_model.Component
module Topology = Sep_model.Topology
module Net = Sep_distributed.Net
module Kernel = Sep_core.Regime_kernel
module Prng = Sep_util.Prng

let qtest = QCheck_alcotest.to_alcotest

let a = Colour.make "A"
let b = Colour.make "B"
let c = Colour.make "C"

(* A forwards external words to B (wire 0); B uppercases onto C (wire 1);
   C outputs. *)
let relay_topology ?(capacity = 4) () =
  let fwd out_wire =
    Component.stateless ~name:"fwd" (function
      | Component.External m -> [ Component.Send (out_wire, m) ]
      | Component.Recv _ -> [])
  in
  let upper =
    Component.stateless ~name:"upper" (function
      | Component.Recv (0, m) -> [ Component.Send (1, String.uppercase_ascii m) ]
      | Component.Recv _ | Component.External _ -> [])
  in
  let sink =
    Component.stateless ~name:"sink" (function
      | Component.Recv (_, m) -> [ Component.Output m ]
      | Component.External _ -> [])
  in
  Topology.make
    ~parts:[ (a, fwd 0); (b, upper); (c, sink) ]
    ~wires:[ (a, b, capacity); (b, c, capacity) ]

let test_net_relay () =
  let net = Net.build (relay_topology ()) in
  Net.run net ~steps:6 ~externals:(fun n -> if n = 0 then [ (a, "hello") ] else []);
  Alcotest.(check (list string)) "delivered and transformed" [ "HELLO" ] (Net.outputs net c);
  Alcotest.(check int) "nothing left in flight" 0 (Net.in_flight net);
  Alcotest.(check int) "no drops" 0 (Net.drops net)

let test_kernel_relay () =
  let k = Kernel.build (relay_topology ()) in
  Kernel.run k ~steps:6 ~externals:(fun n -> if n = 0 then [ (a, "hello") ] else []);
  Alcotest.(check (list string)) "delivered and transformed" [ "HELLO" ] (Kernel.outputs k c);
  Alcotest.(check int) "kernel buffers drained" 0 (Kernel.buffered k);
  Alcotest.(check bool) "context switches happened" true (Kernel.context_switches k > 0);
  Alcotest.(check bool) "messages were copied through the kernel" true (Kernel.messages_copied k >= 4)

(* Sustained sends against a full wire: the surplus of every step is
   dropped and counted, and the receiver still sees each surviving word
   exactly once, in order. *)
let test_net_backpressure_sustained () =
  let net = Net.build (relay_topology ~capacity:1 ()) in
  for n = 0 to 9 do
    Net.step net ~externals:[ (a, Fmt.str "w%d" n); (a, Fmt.str "x%d" n) ]
  done;
  (* drain the pipeline *)
  Net.run net ~steps:6 ~externals:(fun _ -> []);
  Alcotest.(check bool) "sustained overflow counted" true (Net.drops net >= 10);
  let seen = Net.outputs net c in
  Alcotest.(check bool) "survivors delivered" true (List.length seen > 0);
  let sorted = List.sort compare seen in
  Alcotest.(check (list string)) "no duplication" (List.sort_uniq compare seen) sorted

(* A cut wire accepts sends silently forever: no delivery, no drop
   counter, no backpressure signal the sender could observe. *)
let test_net_cut_wire_sustained () =
  let topo = Sep_model.Topology.cut_wire (relay_topology ()) 0 in
  let net = Net.build topo in
  Net.run net ~steps:20 ~externals:(fun n -> [ (a, Fmt.str "m%d" n) ]);
  Alcotest.(check (list string)) "nothing ever arrives" [] (Net.outputs net c);
  Alcotest.(check int) "cut sends are not drops" 0 (Net.drops net);
  Alcotest.(check int) "nothing in flight" 0 (Net.in_flight net)

let test_net_tamper () =
  let net = Net.build (relay_topology ()) in
  Net.step net ~externals:[ (a, "keep"); (a, "mangle"); (a, "kill") ];
  let touched =
    Net.tamper net ~wire:0 (function
      | "keep" -> Some "keep"
      | "mangle" -> Some "MANGLED"
      | _ -> None)
  in
  Alcotest.(check int) "altered + destroyed" 2 touched;
  Alcotest.(check int) "destroyed counted as drop" 1 (Net.drops net);
  Net.run net ~steps:6 ~externals:(fun _ -> []);
  Alcotest.(check (list string)) "delivery reflects the tampering" [ "KEEP"; "MANGLED" ]
    (Net.outputs net c);
  Alcotest.check_raises "unknown wire" (Invalid_argument "Net.tamper: no such wire") (fun () ->
      ignore (Net.tamper net ~wire:9 (fun m -> Some m)))

let test_net_capacity_drops () =
  let net = Net.build (relay_topology ~capacity:1 ()) in
  (* two sends into a capacity-1 wire in one step: the second is dropped *)
  Net.step net ~externals:[ (a, "one"); (a, "two") ];
  Alcotest.(check int) "drop counted" 1 (Net.drops net)

let test_kernel_capacity_drops () =
  let k = Kernel.build (relay_topology ~capacity:1 ()) in
  Kernel.step k ~externals:[ (a, "one"); (a, "two") ];
  Alcotest.(check int) "drop counted" 1 (Kernel.drops k)

let test_cut_wire_blocks_delivery () =
  let topo = Topology.cut_wire (relay_topology ()) 0 in
  let net = Net.build topo in
  Net.run net ~steps:6 ~externals:(fun n -> if n = 0 then [ (a, "x") ] else []);
  Alcotest.(check (list string)) "net: nothing arrives" [] (Net.outputs net c);
  let k = Kernel.build topo in
  Kernel.run k ~steps:6 ~externals:(fun n -> if n = 0 then [ (a, "x") ] else []);
  Alcotest.(check (list string)) "kernel: nothing arrives" [] (Kernel.outputs k c)

let test_unowned_wire_send_dropped () =
  (* a component sending on a wire whose source is another box *)
  let rogue =
    Component.stateless ~name:"rogue" (function
      | Component.External _ -> [ Component.Send (1, "forged") ]
      | Component.Recv _ -> [])
  in
  let sink =
    Component.stateless ~name:"sink" (function
      | Component.Recv (_, m) -> [ Component.Output m ]
      | Component.External _ -> [])
  in
  let topo =
    Topology.make
      ~parts:[ (a, rogue); (b, sink); (c, sink) ]
      ~wires:[ (a, b, 4); (b, c, 4) ]
  in
  let net = Net.build topo in
  Net.run net ~steps:4 ~externals:(fun n -> if n = 0 then [ (a, "go") ] else []);
  Alcotest.(check (list string)) "net: forgery blocked" [] (Net.outputs net c);
  Alcotest.(check int) "net: counted" 1 (Net.drops net);
  let k = Kernel.build topo in
  Kernel.run k ~steps:4 ~externals:(fun n -> if n = 0 then [ (a, "go") ] else []);
  Alcotest.(check (list string)) "kernel: forgery blocked" [] (Kernel.outputs k c);
  Alcotest.(check int) "kernel: counted" 1 (Kernel.drops k)

(* -- E7: trace equivalence ----------------------------------------------------- *)

let traces_equal topo ~steps ~externals =
  let net = Net.build topo in
  let k = Kernel.build topo in
  Net.run net ~steps ~externals;
  Kernel.run k ~steps ~externals;
  List.for_all (fun col -> Net.trace net col = Kernel.trace k col) (Topology.colours topo)

let test_e7_relay () =
  let externals n = if n mod 2 = 0 && n < 10 then [ (a, Fmt.str "m%d" n) ] else [] in
  Alcotest.(check bool) "relay traces equal" true
    (traces_equal (relay_topology ()) ~steps:20 ~externals)

let test_e7_snfe () =
  let topo = Sep_snfe.Snfe.topology Sep_snfe.Snfe.default_config in
  let externals n =
    if n < 4 then [ (Sep_snfe.Snfe.red, Fmt.str "packet %d" n) ]
    else if n = 5 then [ (Sep_snfe.Snfe.black, "PKT HDR seq=0 len=3|3|aabbcc") ]
    else []
  in
  Alcotest.(check bool) "snfe traces equal" true (traces_equal topo ~steps:25 ~externals)

let test_e7_mls () =
  let topo = Sep_apps.Mls.topology () in
  let externals n =
    List.filter_map
      (fun (s, c, m) -> if s = n then Some (c, m) else None)
      Sep_apps.Mls.demo_script
  in
  Alcotest.(check bool) "mls traces equal" true (traces_equal topo ~steps:50 ~externals)

let test_e7_detects_kernel_bugs () =
  (* a kernel that fails at its one job must be caught by the equivalence *)
  let externals n = if n < 6 then [ (a, Fmt.str "m%d" n) ] else [] in
  List.iter
    (fun bug ->
      let topo = relay_topology () in
      let net = Net.build topo in
      let k = Kernel.build ~bugs:[ bug ] topo in
      Net.run net ~steps:15 ~externals;
      Kernel.run k ~steps:15 ~externals;
      let equal =
        List.for_all (fun col -> Net.trace net col = Kernel.trace k col) (Topology.colours topo)
      in
      Alcotest.(check bool)
        (Fmt.str "%a breaks indistinguishability" Kernel.pp_bug bug)
        false equal)
    Kernel.all_bugs

(* Random workloads over a randomly-wired topology. *)
let e7_random =
  QCheck.Test.make ~name:"random workloads: kernelized = distributed" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      (* random 3-component topology with 2-4 wires *)
      let cols = [| a; b; c |] in
      let bounce =
        Component.make ~name:"bounce" ~init:0 ~step:(fun n ev ->
            match ev with
            | Component.External m -> (n + 1, [ Component.Send (n mod 4, m) ])
            | Component.Recv (w, m) ->
              if String.length m > 6 then (n, [ Component.Output m ])
              else (n + 1, [ Component.Send ((n + w) mod 4, m ^ "!") ]))
      in
      let wire _ =
        let src = Prng.int rng 3 in
        let dst = (src + 1 + Prng.int rng 2) mod 3 in
        (cols.(src), cols.(dst), 1 + Prng.int rng 3)
      in
      let wires = List.init (2 + Prng.int rng 3) wire in
      let topo = Topology.make ~parts:[ (a, bounce); (b, bounce); (c, bounce) ] ~wires in
      let script =
        List.init 12 (fun i -> (i, cols.(Prng.int rng 3), Fmt.str "w%d" (Prng.int rng 10)))
      in
      let externals n =
        List.filter_map (fun (s, col, m) -> if s = n then Some (col, m) else None) script
      in
      traces_equal topo ~steps:30 ~externals)

(* A reliable run, pinned: under a lossy link, the link model's draws
   (drop, then reorder — drawn even on an empty line — then dup), where
   a reordered frame lands, which frames the go-back-N sender resends and
   when, and what a partition and a tamper destroy all show in the boxes'
   traces and the link counters. Update the pin only for an intended
   change to the link model or the protocol. *)
let reliable_run_digest ?(steps = 120) ?(sending = fun n -> n < 60) link =
  let net = Net.build ~link (relay_topology ~capacity:3 ()) in
  for n = 0 to steps - 1 do
    if n = 30 then Net.set_wire_up net ~wire:0 false;
    if n = 36 then Net.set_wire_up net ~wire:0 true;
    if n = 52 then
      ignore (Net.tamper net ~wire:0 (fun m -> if m.[1] = '4' then None else Some (m ^ "~")));
    Net.step net ~externals:(if sending n then [ (a, Fmt.str "w%d" n) ] else [])
  done;
  let obs = function
    | Component.Saw e -> Fmt.str "saw %a" Component.pp_event e
    | Component.Did x -> Fmt.str "did %a" Component.pp_action x
  in
  let s = Net.link_stats net in
  let text =
    String.concat "\n"
      (List.concat_map
         (fun col -> Colour.name col :: List.map obs (Net.trace net col))
         (Topology.colours (relay_topology ()))
      @ [
          Fmt.str "%d %d %d %d %d %d %d" s.Net.ls_in_flight s.ls_drops s.ls_lossy_drops
            s.ls_retransmits s.ls_acks s.ls_backoff_ceiling s.ls_partition_drops;
        ])
  in
  Digest.to_hex (Digest.string text)

let test_net_lossy_pinned () =
  Alcotest.(check string) "lossy run digest" "0b8c336641a66d710a3f0990b1d69a0e"
    (reliable_run_digest { Net.lm_seed = 3; lm_drop = 20; lm_dup = 15; lm_reorder = 25 })

(* The same run over a link whose rates are all zero, as the federation
   runs it, with a second burst of sends after the windows have drained:
   no draw can fire, so the net makes none, and a wire with nothing to
   send, resend or field is skipped. The traces and counters must be
   those of the net that drew and visited every wire. A link that only
   duplicates and reorders still draws for every roll. *)
let test_net_zero_rate_pinned () =
  let run link =
    reliable_run_digest ~steps:200 ~sending:(fun n -> n < 60 || (n >= 120 && n < 140)) link
  in
  Alcotest.(check string) "zero-rate run digest" "dd6b18dd56439ce03a8af1fb1375c81a"
    (run { Net.lm_seed = 3; lm_drop = 0; lm_dup = 0; lm_reorder = 0 });
  Alcotest.(check string) "no-drop run digest" "063d409a1e6a6ccc5ed495806c086505"
    (run { Net.lm_seed = 3; lm_drop = 0; lm_dup = 15; lm_reorder = 25 })

(* Handing a box's log over after every step loses nothing and repeats
   nothing: the hand-overs, concatenated, are the trace of an identical
   net that was never handed over. The link is lossy and the run has a
   partition and a tamper, so the protocol retransmits and the boxes see
   forged payloads. A second hand-over with no step in between is
   empty. *)
let test_net_hand_over () =
  let link = { Net.lm_seed = 7; lm_drop = 20; lm_dup = 10; lm_reorder = 10 } in
  let colours = Topology.colours (relay_topology ()) in
  let kept = Net.build ~link (relay_topology ()) in
  let handed = Net.build ~link (relay_topology ()) in
  let taken = List.map (fun col -> (col, ref [])) colours in
  let tampered = ref 0 in
  let on_both f =
    f kept;
    f handed
  in
  for n = 0 to 79 do
    if n = 12 then on_both (fun net -> Net.set_wire_up net ~wire:0 false);
    if n = 18 then on_both (fun net -> Net.set_wire_up net ~wire:0 true);
    if n = 25 then
      on_both (fun net ->
          tampered :=
            !tampered
            + Net.tamper net ~wire:0 (fun m ->
                  if String.length m mod 2 = 0 then None else Some (m ^ "?")));
    let externals = if n < 40 then [ (a, Fmt.str "m%d" n) ] else [] in
    on_both (fun net -> Net.step net ~externals);
    List.iter (fun (col, acc) -> acc := !acc @ Net.hand_over handed col) taken
  done;
  List.iter
    (fun (col, acc) ->
      let label = Colour.name col in
      Alcotest.(check bool) (label ^ ": hand-overs = trace") true (!acc = Net.trace kept col);
      Alcotest.(check (list string))
        (label ^ ": hand-overs' outputs = outputs")
        (Net.outputs kept col)
        (List.filter_map
           (function Component.Did (Component.Output m) -> Some m | _ -> None)
           !acc);
      Alcotest.(check bool) (label ^ ": nothing left after the hand-over") true
        (Net.trace handed col = [] && Net.hand_over handed col = []))
    taken;
  Alcotest.(check bool) "the run delivered something" true (Net.outputs kept c <> []);
  Alcotest.(check bool) "the tamper hit frames in transit" true (!tampered > 0);
  let stats = Net.link_stats kept in
  Alcotest.(check bool) "the link lost and resent frames" true
    (stats.Net.ls_lossy_drops > 0 && stats.Net.ls_retransmits > 0 && stats.Net.ls_partition_drops > 0);
  Alcotest.(check bool) "both nets ran the same" true (stats = Net.link_stats handed)

let () =
  Alcotest.run "substrates"
    [
      ( "distributed net",
        [
          Alcotest.test_case "relay" `Quick test_net_relay;
          Alcotest.test_case "capacity drops" `Quick test_net_capacity_drops;
          Alcotest.test_case "sustained backpressure" `Quick test_net_backpressure_sustained;
          Alcotest.test_case "cut wire under sustained sends" `Quick test_net_cut_wire_sustained;
          Alcotest.test_case "wire tamper" `Quick test_net_tamper;
          Alcotest.test_case "hand-over keeps nothing, loses nothing" `Quick test_net_hand_over;
          Alcotest.test_case "lossy run pinned" `Quick test_net_lossy_pinned;
          Alcotest.test_case "zero-rate run pinned" `Quick test_net_zero_rate_pinned;
        ] );
      ( "regime kernel",
        [
          Alcotest.test_case "relay" `Quick test_kernel_relay;
          Alcotest.test_case "capacity drops" `Quick test_kernel_capacity_drops;
        ] );
      ( "isolation mechanics",
        [
          Alcotest.test_case "cut wire" `Quick test_cut_wire_blocks_delivery;
          Alcotest.test_case "unowned wire" `Quick test_unowned_wire_send_dropped;
        ] );
      ( "indistinguishability (E7)",
        [
          Alcotest.test_case "relay" `Quick test_e7_relay;
          Alcotest.test_case "snfe" `Quick test_e7_snfe;
          Alcotest.test_case "mls" `Quick test_e7_mls;
          Alcotest.test_case "detects kernel bugs" `Quick test_e7_detects_kernel_bugs;
          qtest e7_random;
        ] );
    ]
