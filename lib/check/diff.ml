module Prng = Sep_util.Prng
module Colour = Sep_model.Colour
module Component = Sep_model.Component
module Topology = Sep_model.Topology
module Machine = Sep_hw.Machine
module Isa = Sep_hw.Isa
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module Regime_kernel = Sep_core.Regime_kernel
module Net = Sep_distributed.Net
module Fed = Sep_fed.Fed
module Campaign = Sep_robust.Campaign

(* Flow-controlled drive, as in the fault campaign: a scheduled word
   queues until its Rx latch is free, so every regime consumes the same
   word sequence however the processor is shared — without the handshake
   the external world doubles as a clock and re-imports the timing
   channel the paper excludes. *)
let observed_tx ?(bugs = []) ?(impl = Sue.Microcode) ?(settle = 48) cfg ~schedule =
  let t = Sue.build ~bugs ~impl cfg in
  let m = Sue.machine t in
  let is_rx (d, _) = d >= 0 && d < Machine.num_devices m && Machine.device_kind m d = Machine.Rx in
  let sched = Array.of_list schedule in
  let arrivals n = if n < Array.length sched then List.filter is_rx sched.(n) else [] in
  List.filter
    (fun (d, _) -> Machine.device_kind m d = Machine.Tx)
    (Campaign.drive t ~steps:(Array.length sched + settle) arrivals)

let solo_check ?impl ?settle cfg ~schedule =
  let whole = observed_tx ?impl ?settle cfg ~schedule in
  (* device ownership is part of the static configuration, so any build
     answers for all runs *)
  let probe = Sue.build cfg in
  List.concat_map
    (fun colour ->
      let solo_cfg = Campaign.inert_except (Colour.equal colour) cfg in
      let solo = observed_tx ?impl ?settle solo_cfg ~schedule in
      List.filter_map
        (fun (d, whole_words) ->
          if not (Colour.equal (Sue.device_owner probe d) colour) then None
          else
            let solo_words = try List.assoc d solo with Not_found -> [] in
            if Campaign.prefix_compatible whole_words solo_words then None
            else
              Some
                ( colour,
                  d,
                  Fmt.str "device %d: whole run says %a, solo run says %a" d
                    Fmt.(Dump.list int)
                    whole_words
                    Fmt.(Dump.list int)
                    solo_words ))
        whole)
    (Config.colours cfg)

(* -- Kernel vs. the distributed substrate ------------------------------------ *)

(* Stateless component archetypes, parameterized by their outgoing wires. *)
let fan_out ~name outgoing =
  Component.stateless ~name (fun ev ->
      let m = match ev with Component.Recv (_, m) | Component.External m -> m in
      Component.Output m :: List.map (fun w -> Component.Send (w, name ^ ":" ^ m)) outgoing)

let relay ~name outgoing =
  Component.stateless ~name (function
    | Component.External m -> List.map (fun w -> Component.Send (w, m)) outgoing
    | Component.Recv (_, m) -> [ Component.Output ("got:" ^ m) ])

let sink ~name _outgoing =
  Component.stateless ~name (function
    | Component.External m -> [ Component.Output ("ext:" ^ m) ]
    | Component.Recv (w, m) -> [ Component.Output (Fmt.str "w%d:%s" w m) ])

let gen_case rng =
  let n = Prng.int_in rng 2 4 in
  let colours = List.init n Colour.of_index in
  let wire_specs =
    List.filter_map
      (fun _ ->
        let s = Prng.int rng n in
        let d = Prng.int rng n in
        if s = d then None else Some (List.nth colours s, List.nth colours d, Prng.int_in rng 1 3))
      (List.init (Prng.int_in rng 1 4) (fun i -> i))
  in
  let outgoing_of c =
    List.concat
      (List.mapi (fun i (s, _, _) -> if Colour.equal s c then [ i ] else []) wire_specs)
  in
  let parts =
    List.map
      (fun c ->
        let name = Colour.name c in
        let make = Prng.choose rng [| fan_out; relay; sink |] in
        (c, make ~name (outgoing_of c)))
      colours
  in
  let topo = Topology.make ~parts ~wires:wire_specs in
  let colour_arr = Array.of_list colours in
  let externals_table =
    Array.init 24 (fun _ ->
        List.init (Prng.int rng 3) (fun _ ->
            (Prng.choose rng colour_arr, Fmt.str "m%d" (Prng.int rng 8))))
  in
  let externals n = if n < Array.length externals_table then externals_table.(n) else [] in
  (topo, externals)

let kernel_vs_net_case ?(kernel_bugs = []) ~seed ~steps () =
  let rng = Prng.create seed in
  let topo, externals = gen_case rng in
  let net = Net.build topo in
  let kern = Regime_kernel.build ~bugs:kernel_bugs topo in
  Net.run net ~steps ~externals;
  Regime_kernel.run kern ~steps ~externals;
  let mismatches =
    List.filter_map
      (fun c ->
        let a = Net.trace net c in
        let b = Regime_kernel.trace kern c in
        if List.length a = List.length b && List.for_all2 Component.equal_obs a b then None
        else
          Some
            (Fmt.str "%s: net trace %a, kernel trace %a (seed %d)" (Colour.name c)
               Fmt.(Dump.list Component.pp_obs)
               a
               Fmt.(Dump.list Component.pp_obs)
               b seed))
      (Topology.colours topo)
  in
  match mismatches with [] -> Ok () | m :: _ -> Error m

let kernel_vs_net ~seed ~cases ~steps =
  let rng = Prng.create seed in
  let mismatches = ref [] in
  for _ = 1 to cases do
    let case_seed = Int64.to_int (Prng.bits64 rng) land 0x3fffffff in
    match kernel_vs_net_case ~seed:case_seed ~steps () with
    | Ok () -> ()
    | Error m -> mismatches := m :: !mismatches
  done;
  (cases, List.rev !mismatches)

(* -- Kernel vs. the reliable net over a lossy link ---------------------------- *)

type reliable_case = {
  rc_mismatches : string list;
  rc_stats : Net.link_stats;
  rc_delivered : int;  (* words received across the lossy run *)
  rc_retransmit_queue : int;  (* net.retransmit_queue gauge at run end *)
}

(* A relay pipeline A -> B -> C, driven at one word every three steps: slow
   enough that the lossless substrates never drop on a full wire. That
   throttle matters — the reliable protocol queues without bound while a
   bare wire sheds load, and backpressure drops are a legitimate
   difference between the two, not the separation failure this oracle
   hunts. *)
let reliable_topology () =
  let a = Colour.make "A" and b = Colour.make "B" and c = Colour.make "C" in
  let parts =
    [ (a, relay ~name:"A" [ 0 ]); (b, fan_out ~name:"B" [ 1 ]); (c, sink ~name:"C" []) ]
  in
  (Topology.make ~parts ~wires:[ (a, b, 2); (b, c, 2) ], a)

let recvs trace =
  List.filter_map
    (function Component.Saw (Component.Recv (w, m)) -> Some (w, m) | _ -> None)
    trace

let per_wire pairs =
  List.fold_left
    (fun acc (w, m) ->
      let cur = try List.assoc w acc with Not_found -> [] in
      (w, cur @ [ m ]) :: List.remove_assoc w acc)
    [] pairs

let kernel_vs_reliable_net_case ?(link = Net.default_link_model) ~seed ~steps () =
  let topo, a = reliable_topology () in
  let net = Net.build ~link:{ link with Net.lm_seed = seed } topo in
  let kern = Regime_kernel.build topo in
  let externals n = if n mod 3 = 0 then [ (a, Fmt.str "m%d" (n / 3)) ] else [] in
  Net.run net ~steps ~externals;
  Regime_kernel.run kern ~steps ~externals;
  (* The reliable channel preserves content and order but not timing, and
     the run may end with frames still in flight — so each wire's lossy
     delivery must be a prefix of the ideal's, never something else. *)
  let delivered = ref 0 in
  let mismatches =
    List.concat_map
      (fun c ->
        let ideal = per_wire (recvs (Regime_kernel.trace kern c)) in
        let got = per_wire (recvs (Net.trace net c)) in
        List.filter_map
          (fun (w, got_words) ->
            delivered := !delivered + List.length got_words;
            let ideal_words = try List.assoc w ideal with Not_found -> [] in
            if Campaign.is_prefix got_words ideal_words then None
            else
              Some
                (Fmt.str "%s wire %d: lossy run says %a, ideal says %a (seed %d)" (Colour.name c)
                   w
                   Fmt.(Dump.list string)
                   got_words
                   Fmt.(Dump.list string)
                   ideal_words seed))
          got)
      (Topology.colours topo)
  in
  let rc_retransmit_queue =
    match Sep_obs.Telemetry.find_gauge (Net.telemetry net) "net.retransmit_queue" with
    | Some g -> int_of_float (Sep_obs.Telemetry.gauge_value g)
    | None -> 0
  in
  { rc_mismatches = mismatches; rc_stats = Net.link_stats net; rc_delivered = !delivered;
    rc_retransmit_queue }

let kernel_vs_reliable_net ?link ~seed ~cases ~steps () =
  let rng = Prng.create seed in
  List.init cases (fun _ ->
      let case_seed = Int64.to_int (Prng.bits64 rng) land 0x3fffffff in
      kernel_vs_reliable_net_case ?link ~seed:case_seed ~steps ())

(* -- The recovery campaign ----------------------------------------------------- *)

type recovery = {
  rv_report : Campaign.report;
  rv_drop : int;
  rv_reliable : reliable_case list;
}

(* the reliable-channel differential: the kernel must still pin against
   the distributed ideal when the ideal's wires drop, duplicate and
   reorder frames under the reliable protocol *)
let recovery ?jobs ~seed ~steps ~count ~drop ~cases ~net_steps () =
  let rv_report = Campaign.run_recovery ?jobs ~seed ~steps ~count () in
  let link = { Net.default_link_model with Net.lm_drop = drop } in
  let rv_reliable = kernel_vs_reliable_net ~link ~seed ~cases ~steps:net_steps () in
  { rv_report; rv_drop = drop; rv_reliable }

let recovery_ok r =
  let _, _, recovered, _ = Campaign.totals r.rv_report in
  Campaign.holds r.rv_report && recovered > 0
  && List.for_all (fun rc -> rc.rc_mismatches = []) r.rv_reliable

let recovery_lines r =
  let module J = Sep_util.Json in
  let masked, detected, recovered, violating = Campaign.totals r.rv_report in
  Campaign.report_lines r.rv_report
  @ List.mapi
      (fun i rc ->
        J.Obj
          [
            ("kind", J.String "reliable-net");
            ("case", J.Int i);
            ("drop", J.Int r.rv_drop);
            ("delivered", J.Int rc.rc_delivered);
            ("stats", Net.link_stats_to_json rc.rc_stats);
            ("mismatches", J.List (List.map (fun m -> J.String m) rc.rc_mismatches));
          ])
      r.rv_reliable
  @ [
      J.Obj
        [
          ("kind", J.String "recover-summary");
          ("seed", J.Int r.rv_report.Campaign.rp_seed);
          ("masked", J.Int masked);
          ("detected_safe", J.Int detected);
          ("recovered_safe", J.Int recovered);
          ("violating", J.Int violating);
          ("ok", J.Bool (recovery_ok r));
        ];
    ]

(* -- The federation vs the monolithic ideal ----------------------------------- *)

(* The federation's ideal is the same uncut global configuration on ONE
   kernel, driven by the same input drip under the same flow-control
   handshake the federation applies at its boundary. Crossing a physical
   wire (and surviving a failover or a partition) may cost latency, never
   words: every global device's federated output stream must be
   prefix-compatible with the ideal's. *)
let ideal_outputs (spec : Fed.spec) ~steps =
  Campaign.drive (Sue.build spec.Fed.fs_cfg) ~steps (Sep_core.Scenarios.drip spec.Fed.fs_alphabet)

let federation_vs_ideal ?plan ?(steps = 600) (spec : Fed.spec) =
  let t = Fed.build ?plan spec in
  Fed.run t ~steps;
  let fed = Fed.finish t in
  let ideal = ideal_outputs spec ~steps in
  List.filter_map
    (fun (d, fed_words) ->
      let ideal_words = try List.assoc d ideal with Not_found -> [] in
      if Campaign.prefix_compatible fed_words ideal_words then None
      else
        Some
          ( Fed.device_owner_colour t d,
            d,
            Fmt.str "device %d: federation says %a, ideal says %a" d
              Fmt.(Dump.list int)
              fed_words
              Fmt.(Dump.list int)
              ideal_words ))
    fed.Fed.fob_outputs
