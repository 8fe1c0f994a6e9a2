(* Tests for the formal model layer: colours, the Appendix system (step,
   reachability, traces), components and topologies. *)

module Colour = Sep_model.Colour
module System = Sep_model.System
module Component = Sep_model.Component
module Topology = Sep_model.Topology

(* A tiny two-colour counter system: each colour owns a counter mod n;
   input "bump c" increments c's counter; the op is a no-op. Useful for
   exercising the generic machinery without the kernel. *)
let counter_system n =
  let noop = { System.op_name = "noop"; op_apply = Fun.id } in
  {
    System.name = "counters";
    colours = [ Colour.red; Colour.black ];
    initial = [ (0, 0) ];
    inputs = [ None; Some Colour.red; Some Colour.black ];
    ops = [ noop ];
    colour_of = (fun _ -> Colour.red);
    input =
      (fun (r, b) i ->
        match i with
        | None -> (r, b)
        | Some c when Colour.equal c Colour.red -> ((r + 1) mod n, b)
        | Some _ -> (r, (b + 1) mod n));
    nextop = (fun _ -> noop);
    output = (fun (r, b) -> (r, b));
    extract_input =
      (fun c i -> match i with Some c' when Colour.equal c c' -> 1 | Some _ | None -> 0);
    extract_output = (fun c (r, b) -> if Colour.equal c Colour.red then r else b);
    abstract = (fun c (r, b) -> if Colour.equal c Colour.red then r else b);
    abop = (fun _ _ -> { System.abop_name = "noop"; abop_apply = Fun.id });
    sanctioned_interference = (fun _ _ _ _ -> false);
    equal_state = ( = );
    hash_state = Hashtbl.hash;
    equal_abstate = ( = );
    hash_abstate = Hashtbl.hash;
    equal_proj = ( = );
    pp_state = (fun ppf (r, b) -> Fmt.pf ppf "(%d,%d)" r b);
    pp_input = (fun ppf i -> Fmt.pf ppf "%a" (Fmt.Dump.option Colour.pp) i);
    pp_abstate = Fmt.int;
  }

let test_colour_basics () =
  Alcotest.(check string) "name" "RED" (Colour.name Colour.red);
  Alcotest.(check bool) "equal" true (Colour.equal (Colour.make "X") (Colour.make "X"));
  Alcotest.(check string) "of_index" "C3" (Colour.name (Colour.of_index 3))

let test_reachable_counts () =
  let sys = counter_system 3 in
  let states = System.reachable sys in
  Alcotest.(check int) "3x3 counter states" 9 (List.length states)

let test_reachable_limit () =
  let sys = counter_system 10 in
  Alcotest.check_raises "limit enforced" (Failure "System.reachable: state limit exceeded")
    (fun () -> ignore (System.reachable ~limit:5 sys))

(* -- The explored graph ------------------------------------------------------ *)

(* [explore] is the reachable relation: each [after_input] entry is the
   state the input gives, each post-INPUT state's NEXTOP successor is
   recorded, and [reachable] lists the same states in the same order. *)
let check_graph label sys =
  let g = System.explore sys in
  let n = Array.length g.System.states in
  let eq = sys.System.equal_state in
  let is_post = Array.make n false in
  Array.iteri
    (fun k row ->
      List.iteri
        (fun j i ->
          let m = row.(j) in
          is_post.(m) <- true;
          if not (eq g.System.states.(m) (sys.System.input g.System.states.(k) i)) then
            Alcotest.failf "%s: after_input.(%d).(%d) is not the input applied" label k j)
        sys.System.inputs)
    g.System.after_input;
  Alcotest.(check int) (label ^ ": a row per state") n (Array.length g.System.after_input);
  Array.iteri
    (fun m post ->
      let next = g.System.after_op.(m) in
      if post <> (next >= 0) then
        Alcotest.failf "%s: state %d is %sa post-INPUT state but after_op is %d" label m
          (if post then "" else "not ") next;
      if post then begin
        let s = g.System.states.(m) in
        if not (eq g.System.states.(next) ((sys.System.nextop s).System.op_apply s)) then
          Alcotest.failf "%s: after_op.(%d) is not NEXTOP applied" label m
      end)
    is_post;
  Alcotest.(check bool) (label ^ ": reachable lists the states in order") true
    (List.equal eq (System.reachable sys) (Array.to_list g.System.states));
  g

let test_explore_counters () =
  let g = check_graph "counters" (counter_system 3) in
  Alcotest.(check (list (pair int int)))
    "breadth-first order"
    [ (0, 0); (1, 0); (0, 1); (2, 0); (1, 1); (0, 2); (2, 1); (1, 2); (2, 2) ]
    (Array.to_list g.System.states)

(* The 4 scenarios on both kernels (the machine-code kernel has no
   preemption quantum): state count and an MD5 of the [Sue.hash]
   sequence, which pin the breadth-first order and the representative
   of every class. *)
let scenario_orders =
  [
    ("microcode pipeline", (9944, "9a6f85626721c3a3bd747cd487334b99"));
    ("microcode interrupt", (1797, "db350e517976833f09f1634afc46244e"));
    ("microcode snfe-micro", (1679, "aa564e0a8e82143574faa7b22e22273a"));
    ("microcode preemptive", (132, "d381bc03f5559f294382b92d8c4c3270"));
    ("assembly pipeline", (10079, "fc8af1a4b539a08504e8ba1ad11433ff"));
    ("assembly interrupt", (2031, "56fd9b91c43775e29a9e312188bb400a"));
    ("assembly snfe-micro", (1508, "b98296a1fadbb53ff89831fc6ada9d36"));
  ]

let test_explore_scenarios () =
  let module Sue = Sep_core.Sue in
  let module Scenarios = Sep_core.Scenarios in
  List.iter
    (fun impl ->
      List.iter
        (fun (inst : Scenarios.instance) ->
          let label = Fmt.str "%a %s" Sue.pp_impl impl inst.Scenarios.label in
          match List.assoc_opt label scenario_orders with
          | None -> ()
          | Some (count, digest) ->
            let sys = Sue.to_system ~impl ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
            let g = check_graph label sys in
            let hashes = Array.to_list (Array.map (fun s -> string_of_int (Sue.hash s)) g.System.states) in
            Alcotest.(check int) (label ^ ": states") count (Array.length g.System.states);
            Alcotest.(check string) (label ^ ": order") digest
              (Digest.to_hex (Digest.string (String.concat "," hashes))))
        Scenarios.all)
    [ Sue.Microcode; Sue.Assembly ]

let test_step_and_trace () =
  let sys = counter_system 5 in
  let states, outputs = System.trace sys (0, 0) [ Some Colour.red; Some Colour.red; Some Colour.black ] in
  Alcotest.(check int) "visited states" 4 (List.length states);
  Alcotest.(check (list (pair int int))) "outputs are pre-step"
    [ (0, 0); (1, 0); (2, 0) ]
    outputs;
  Alcotest.(check (pair int int)) "final state" (2, 1) (List.nth states 3)

(* -- Component ------------------------------------------------------------- *)

let echo_component =
  Component.make ~name:"echo" ~init:0 ~step:(fun n ev ->
      match ev with
      | Component.External m -> (n + 1, [ Component.Output (Fmt.str "%d:%s" n m) ])
      | Component.Recv (w, m) -> (n, [ Component.Send (w, m) ]))

let test_component_state_threading () =
  let inst = Component.instantiate echo_component in
  Alcotest.(check string) "name" "echo" (Component.instance_name inst);
  let a1 = Component.feed inst (Component.External "x") in
  let a2 = Component.feed inst (Component.External "y") in
  Alcotest.(check bool) "counter advanced" true
    (a1 = [ Component.Output "0:x" ] && a2 = [ Component.Output "1:y" ])

let test_component_instances_independent () =
  let i1 = Component.instantiate echo_component in
  let i2 = Component.instantiate echo_component in
  ignore (Component.feed i1 (Component.External "a"));
  let out = Component.feed i2 (Component.External "b") in
  Alcotest.(check bool) "fresh state" true (out = [ Component.Output "0:b" ])

let test_stateless () =
  let c = Component.stateless ~name:"s" (fun _ -> [ Component.Output "hi" ]) in
  let i = Component.instantiate c in
  ignore (Component.feed i (Component.External "x"));
  Alcotest.(check bool) "still answers" true
    (Component.feed i (Component.External "y") = [ Component.Output "hi" ])

(* -- Topology --------------------------------------------------------------- *)

let two_parts () =
  [ (Colour.red, echo_component); (Colour.black, echo_component) ]

let test_topology_valid () =
  let t = Topology.make ~parts:(two_parts ()) ~wires:[ (Colour.red, Colour.black, 4) ] in
  Alcotest.(check int) "wire count" 1 (List.length t.Topology.wires);
  Alcotest.(check int) "wires_from red" 1 (List.length (Topology.wires_from t Colour.red));
  Alcotest.(check int) "wires_into black" 1 (List.length (Topology.wires_into t Colour.black));
  Alcotest.(check int) "wires_into red" 0 (List.length (Topology.wires_into t Colour.red))

let test_topology_rejects () =
  let reject name parts wires =
    match Topology.validate { Topology.parts; wires } with
    | Ok () -> Alcotest.fail (name ^ ": should have been rejected")
    | Error _ -> ()
  in
  reject "duplicate colours"
    [ (Colour.red, echo_component); (Colour.red, echo_component) ]
    [];
  reject "self wire" (two_parts ())
    [ { Topology.wire_id = 0; src = Colour.red; dst = Colour.red; capacity = 1; cut = false } ];
  reject "unknown endpoint" (two_parts ())
    [ { Topology.wire_id = 0; src = Colour.red; dst = Colour.green; capacity = 1; cut = false } ];
  reject "bad capacity" (two_parts ())
    [ { Topology.wire_id = 0; src = Colour.red; dst = Colour.black; capacity = 0; cut = false } ];
  reject "bad ids" (two_parts ())
    [ { Topology.wire_id = 1; src = Colour.red; dst = Colour.black; capacity = 1; cut = false } ]

let test_topology_cutting () =
  let t = Topology.make ~parts:(two_parts ()) ~wires:[ (Colour.red, Colour.black, 4); (Colour.black, Colour.red, 4) ] in
  let t1 = Topology.cut_wire t 0 in
  Alcotest.(check bool) "wire 0 cut" true (List.nth t1.Topology.wires 0).Topology.cut;
  Alcotest.(check bool) "wire 1 intact" false (List.nth t1.Topology.wires 1).Topology.cut;
  let t2 = Topology.cut_all t in
  Alcotest.(check bool) "all cut" true (List.for_all (fun w -> w.Topology.cut) t2.Topology.wires)

let test_topology_component_lookup () =
  let t = Topology.make ~parts:(two_parts ()) ~wires:[] in
  Alcotest.(check string) "found" "echo" (Component.name (Topology.component t Colour.red));
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Topology.component t Colour.green))

let () =
  Alcotest.run "model"
    [
      ("colour", [ Alcotest.test_case "basics" `Quick test_colour_basics ]);
      ( "system",
        [
          Alcotest.test_case "reachable counts" `Quick test_reachable_counts;
          Alcotest.test_case "reachable limit" `Quick test_reachable_limit;
          Alcotest.test_case "explore counters" `Quick test_explore_counters;
          Alcotest.test_case "explore scenarios" `Quick test_explore_scenarios;
          Alcotest.test_case "step and trace" `Quick test_step_and_trace;
        ] );
      ( "component",
        [
          Alcotest.test_case "state threading" `Quick test_component_state_threading;
          Alcotest.test_case "instances independent" `Quick test_component_instances_independent;
          Alcotest.test_case "stateless" `Quick test_stateless;
        ] );
      ( "topology",
        [
          Alcotest.test_case "valid" `Quick test_topology_valid;
          Alcotest.test_case "rejects" `Quick test_topology_rejects;
          Alcotest.test_case "cutting" `Quick test_topology_cutting;
          Alcotest.test_case "component lookup" `Quick test_topology_component_lookup;
        ] );
    ]
