module Colour = Sep_model.Colour
module Component = Sep_model.Component
module Topology = Sep_model.Topology
module Machine = Sep_hw.Machine
module Isa = Sep_hw.Isa
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Monitor = Sep_core.Monitor
module Abstract_regime = Sep_core.Abstract_regime
module Net = Sep_distributed.Net
module Recover = Sep_recover.Recover
module Fault_plan = Sep_robust.Fault_plan
module Campaign = Sep_robust.Campaign
module J = Sep_util.Json

(* -- Specs ------------------------------------------------------------------ *)

type spec = {
  fs_label : string;
  fs_cfg : Isa.stmt list Config.t;
  fs_placement : (Colour.t * int) list;
  fs_alphabet : Sue.input list;
}

let nshards_of spec = List.fold_left (fun acc (_, s) -> max acc (s + 1)) 1 spec.fs_placement

let shard_of_spec spec c =
  match List.assoc_opt c spec.fs_placement with
  | Some s -> s
  | None -> invalid_arg (Fmt.str "Fed: colour %a has no shard in the placement" Colour.pp c)

let hosted spec s =
  List.filter_map
    (fun r -> if shard_of_spec spec r.Config.colour = s then Some r.Config.colour else None)
    spec.fs_cfg.Config.regimes

(* Inter-shard channels in channel order: these are the federation's data
   links, one physical wire each (the per-channel wire keeps each
   channel's words on their own FIFO line, as the distributed conception
   draws it). *)
let inter_channels spec =
  List.filter
    (fun ch -> shard_of_spec spec ch.Config.sender <> shard_of_spec spec ch.Config.receiver)
    spec.fs_cfg.Config.channels

(* Physical wires: one per inter-shard channel, then one heartbeat line
   per shard into the control node. *)
let nlinks_of spec = List.length (inter_channels spec) + nshards_of spec

let node_space spec =
  { Fault_plan.ns_shards = nshards_of spec; ns_links = nlinks_of spec }

let wire_receiver spec w =
  match List.nth_opt (inter_channels spec) w with
  | Some ch -> Some ch.Config.receiver
  | None -> None (* a heartbeat line: control plane, no regime's words *)

(* -- Policy ----------------------------------------------------------------- *)

type policy = {
  fp_hb_period : int;
  fp_hb_timeout : int;
  fp_max_node_reboots : int;
  fp_monitor_period : int;
  fp_regime : Recover.policy;
}

let default_policy =
  {
    fp_hb_period = 2;
    fp_hb_timeout = 12;
    fp_max_node_reboots = 2;
    fp_monitor_period = 64;
    fp_regime = Recover.default_policy;
  }

(* -- Node events ------------------------------------------------------------ *)

type node_event =
  | Node_crashed of int
  | Node_down_detected of int
  | Node_failover of int * Colour.t list
  | Node_abandoned of int
  | Node_quarantined of int * Colour.t list
  | Node_rejoined of int
  | Link_down of int
  | Link_healed of int
  | Link_tampered of int * int
  | Frame_rejected of int

let node_event_to_json e =
  let simple kind n field = J.Obj [ ("event", J.String kind); (field, J.Int n) ] in
  let colours cs = J.List (List.map (fun c -> J.String (Colour.name c)) cs) in
  match e with
  | Node_crashed s -> simple "node-crashed" s "shard"
  | Node_down_detected s -> simple "node-down-detected" s "shard"
  | Node_failover (s, cs) ->
    J.Obj [ ("event", J.String "node-failover"); ("shard", J.Int s); ("revived", colours cs) ]
  | Node_abandoned s -> simple "node-abandoned" s "shard"
  | Node_quarantined (s, cs) ->
    J.Obj [ ("event", J.String "node-quarantined"); ("shard", J.Int s); ("parked", colours cs) ]
  | Node_rejoined s -> simple "node-rejoined" s "shard"
  | Link_down w -> simple "link-down" w "wire"
  | Link_healed w -> simple "link-healed" w "wire"
  | Link_tampered (w, n) ->
    J.Obj [ ("event", J.String "link-tampered"); ("wire", J.Int w); ("frames", J.Int n) ]
  | Frame_rejected s -> simple "frame-rejected" s "shard"

(* -- Frames ----------------------------------------------------------------- *)

(* Inter-shard frames are strings on Net wires, of two kinds. A channel
   frame carries one whole ring drain, "cb|<chan>|<n>|<w0>,<w1>,...|<ck>",
   however many words it held; a heartbeat is "hb|<shard>". The checksum
   folds the channel id and every word in order, so dropping, reordering
   or forging any word of a frame is caught on arrival: it is the
   end-to-end integrity check the federation adds on top of the link
   protocol, which recovers loss but not forgery. *)
let batch_cksum chan words =
  List.fold_left (fun acc w -> ((acc * 31) + w + 11) land 0xffff) (((chan * 131) + 7) land 0xffff) words

let batch_msg chan words =
  String.concat "|"
    [
      "cb";
      string_of_int chan;
      string_of_int (List.length words);
      String.concat "," (List.map string_of_int words);
      string_of_int (batch_cksum chan words);
    ]

let hb_msg shard = Printf.sprintf "hb|%d" shard

type payload =
  | P_hb of int
  | P_chan of int * int list
  | P_bad

let parse_payload s =
  match String.split_on_char '|' s with
  | [ "hb"; sh ] -> ( match int_of_string_opt sh with Some s -> P_hb s | None -> P_bad)
  | [ "cb"; c; n; ws; k ] -> (
    match (int_of_string_opt c, int_of_string_opt n, int_of_string_opt k) with
    | Some c, Some n, Some k when c >= 0 && n >= 1 ->
      let parts = String.split_on_char ',' ws in
      let words = List.map int_of_string_opt parts in
      if List.length parts = n && List.for_all Option.is_some words then begin
        let words = List.map Option.get words in
        if k = batch_cksum c words then P_chan (c, words) else P_bad
      end
      else P_bad
    | _ -> P_bad)
  | _ -> P_bad

(* Node components route by a wire-id prefix: an external "<wire>|<payload>"
   is the NIC transmit command, a delivery is re-emitted as an Output with
   the arriving wire id prefixed so the federation knows which line it came
   in on. *)
let on_wire w payload = string_of_int w ^ "|" ^ payload

let split_wire m =
  match String.index_opt m '|' with
  | None -> None
  | Some i -> (
    match int_of_string_opt (String.sub m 0 i) with
    | Some w when w >= 0 -> Some (w, String.sub m (i + 1) (String.length m - i - 1))
    | _ -> None)

(* A heartbeat is one string, sent every period, and a string never
   changes: the router keeps its last NIC command and each wire's last
   delivery with the actions they made, and answers the same string,
   compared physically, with the same actions. *)
let router name ~wires =
  let sent = ref None and delivered = Array.make wires None in
  Component.stateless ~name (fun ev ->
      match ev with
      | Component.External m -> (
        match !sent with
        | Some (m', acts) when m' == m -> acts
        | Some _ | None ->
          let acts =
            match split_wire m with Some (w, p) -> [ Component.Send (w, p) ] | None -> []
          in
          sent := Some (m, acts);
          acts)
      | Component.Recv (w, m) -> (
        match delivered.(w) with
        | Some (m', acts) when m' == m -> acts
        | Some _ | None ->
          let acts = [ Component.Output (on_wire w m) ] in
          delivered.(w) <- Some (m, acts);
          acts))

(* -- Per-shard configurations ----------------------------------------------- *)

(* Every shard carries the full global regime and device layout — absent
   regimes run an inert yield loop in their (untouched) partitions — so
   physical addresses, global device ids and channel areas agree across
   the federation, and the monolithic ideal. A channel whose endpoints
   live on different shards is cut everywhere: its send end is drained by
   the source NIC, its receive end fed by the destination NIC, which is
   the wire-cutting argument realised as an actual wire. *)
let shard_config spec s =
  let cfg = Campaign.inert_except (fun c -> shard_of_spec spec c = s) spec.fs_cfg in
  let channels =
    List.map
      (fun ch ->
        let inter = shard_of_spec spec ch.Config.sender <> shard_of_spec spec ch.Config.receiver in
        { ch with Config.cut = ch.Config.cut || inter })
      cfg.Config.channels
  in
  { cfg with Config.channels }

(* -- The federation --------------------------------------------------------- *)

type shard_state =
  | Up
  | Quarantined
  | Abandoned

(* A channel's rings never move, so a route reads their addresses once,
   at build. *)
type route = {
  rt_chan : int;
  rt_src : int;
  rt_dst : int;
  rt_wire : int;
  rt_send_area : int;  (* the ring SEND fills, drained by the source NIC *)
  rt_recv_area : int;  (* the ring RECV drains, fed by the destination NIC *)
  rt_cap : int;
}

type t = {
  spec : spec;
  policy : policy;
  nshards : int;
  nwires : int;
  kernels : Sue.t array;
  recovers : Recover.t array;
  watches : Monitor.swatch option array;
  net : Net.t;
  routes : route array; (* inter-shard channels only *)
  routes_from : route array array; (* shard -> the routes it sources, in route order *)
  hb_external : (Colour.t * string) array; (* shard -> its heartbeat NIC command *)
  node_colour : Colour.t array;
  ctrl_colour : Colour.t;
  ndev : int;
  device_shard : int array;
  device_colour : Colour.t array;
  shard_devices : int array array; (* shard -> the global devices it hosts, ascending *)
  inputs : int -> Sue.input;
  queues : int Queue.t array; (* flow-controlled external input, per device *)
  pending_in : int Queue.t array; (* arrived words awaiting ring space, per channel *)
  powered : bool array;
  state : shard_state array;
  last_seen : int array;
  quarantined_at : int array;
  node_reboots : int array;
  mutable schedule : (int * Fault_plan.fault) list;
  mutable heals : (int * int) list; (* (step, wire) *)
  mutable step_no : int;
  mutable events : (int * node_event) list; (* newest first *)
  mutable frame_rejects : int;
  mutable delivered : int;
  mutable flat_out : (int * int) list; (* newest first *)
  out_q : (int * int) Queue.t; (* same outputs, drained by take_outputs *)
  mutable pending_drops : int list;
  mutable stuck : int list;
  mutable dup_after : int list;
  mutable retired_watches : (int * Monitor.swatch) list;
      (* watches that died with their node at a failover; kept so their
         deep-check counts and any pre-crash violation still surface *)
  parsed : (string * payload option) option array; (* recent arrivals, see [parse_arrival] *)
  mutable parsed_next : int;
}

let global_devices cfg =
  List.concat_map
    (fun r -> List.map (fun k -> (r.Config.colour, k)) r.Config.devices)
    cfg.Config.regimes

(* The per-shard monitor needs the input alphabet as that shard sees it:
   the global alphabet restricted to locally hosted devices. *)
let shard_alphabet spec device_shard s =
  let filt = List.filter (fun (d, _) -> device_shard.(d) = s) in
  List.sort_uniq compare ([] :: List.map filt spec.fs_alphabet)

let build ?(policy = default_policy) ?plan ?(monitor = false) spec =
  (match Config.validate spec.fs_cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fed.build: " ^ e));
  List.iter
    (fun (r : _ Config.regime) -> ignore (shard_of_spec spec r.colour))
    spec.fs_cfg.Config.regimes;
  if policy.fp_hb_period < 1 || policy.fp_hb_timeout < policy.fp_hb_period then
    invalid_arg "Fed.build: heartbeat timeout must cover the period";
  let nshards = nshards_of spec in
  let inter = inter_channels spec in
  let node_colour = Array.init nshards (fun s -> Colour.make (Printf.sprintf "NODE%d" s)) in
  let ctrl_colour = Colour.make "CTRL" in
  let data_wires =
    List.map
      (fun ch ->
        ( node_colour.(shard_of_spec spec ch.Config.sender),
          node_colour.(shard_of_spec spec ch.Config.receiver),
          max 1 ch.Config.capacity ))
      inter
  in
  let hb_wires = Array.init nshards (fun s -> List.length inter + s) in
  let nwires = List.length inter + nshards in
  let topo =
    Topology.make
      ~parts:
        (List.init nshards (fun s ->
             (node_colour.(s), router (Printf.sprintf "node%d" s) ~wires:nwires))
        @ [ (ctrl_colour, router "ctrl" ~wires:nwires) ])
      ~wires:(data_wires @ List.init nshards (fun s -> (node_colour.(s), ctrl_colour, 4)))
  in
  (* Zero fault rates but a link model nonetheless: every line runs the
     reliable go-back-N protocol, so partitions cost latency, not words —
     the sender's pending queue is the federation's retransmission buffer. *)
  let net = Net.build ~link:{ Net.lm_seed = 42; lm_drop = 0; lm_dup = 0; lm_reorder = 0 } topo in
  let kernels = Array.init nshards (fun s -> Sue.build (shard_config spec s)) in
  let routes =
    Array.of_list
      (List.mapi
         (fun i ch ->
           let src = shard_of_spec spec ch.Config.sender in
           let dst = shard_of_spec spec ch.Config.receiver in
           (* channel ids are positions (Config.validate), so every
              channel has its areas *)
           let area k = Option.get (Sue.channel_area kernels.(k) ch.Config.chan_id) in
           let send_area, _, cap = area src and _, recv_area, _ = area dst in
           {
             rt_chan = ch.Config.chan_id;
             rt_src = src;
             rt_dst = dst;
             rt_wire = i;
             rt_send_area = send_area;
             rt_recv_area = recv_area;
             rt_cap = cap;
           })
         inter)
  in
  let recovers = Array.map (fun k -> Recover.create ~policy:policy.fp_regime k) kernels in
  let devices = Array.of_list (global_devices spec.fs_cfg) in
  let ndev = Array.length devices in
  let device_colour = Array.map fst devices in
  let device_shard = Array.map (fun (c, _) -> shard_of_spec spec c) devices in
  let watches =
    Array.init nshards (fun s ->
        if monitor then
          Some
            (* A shard's intra-shard channels run *connected*: the
               sanctioned-interference reading of condition 2, not the
               strict cut-system one, is what the watch must check. *)
            (Monitor.watch ~period:policy.fp_monitor_period ~sanction_channels:true
               ~inputs:(shard_alphabet spec device_shard s)
               kernels.(s))
        else None)
  in
  {
    spec;
    policy;
    nshards;
    nwires;
    kernels;
    recovers;
    watches;
    net;
    routes;
    routes_from =
      Array.init nshards (fun s ->
          Array.of_list (List.filter (fun rt -> rt.rt_src = s) (Array.to_list routes)));
    hb_external =
      Array.init nshards (fun s ->
          (node_colour.(s), on_wire hb_wires.(s) (hb_msg s)));
    node_colour;
    ctrl_colour;
    ndev;
    device_shard;
    device_colour;
    shard_devices =
      Array.init nshards (fun s ->
          Array.of_list (List.filter (fun d -> device_shard.(d) = s) (List.init ndev Fun.id)));
    inputs = Sep_core.Scenarios.drip spec.fs_alphabet;
    queues = Array.init ndev (fun _ -> Queue.create ());
    pending_in = Array.init (List.length spec.fs_cfg.Config.channels) (fun _ -> Queue.create ());
    powered = Array.make nshards true;
    state = Array.make nshards Up;
    last_seen = Array.make nshards 0;
    quarantined_at = Array.make nshards 0;
    node_reboots = Array.make nshards 0;
    schedule = (match plan with Some (p : Fault_plan.t) -> p.Fault_plan.faults | None -> []);
    heals = [];
    step_no = 0;
    events = [];
    frame_rejects = 0;
    delivered = 0;
    flat_out = [];
    out_q = Queue.create ();
    pending_drops = [];
    stuck = [];
    dup_after = [];
    retired_watches = [];
    parsed = Array.make nwires None;
    parsed_next = 0;
  }

let kernel t ~shard = t.kernels.(shard)
let net t = t.net
let shards t = t.nshards
let links t = t.nwires
let shard_state t ~shard = t.state.(shard)
let events t = List.rev t.events

(* The service layer's doors into the federation: queue words for a
   device's flow-controlled external input, and drain the Tx words the
   shards emitted since the last call (device-step order, oldest first).
   [finish]'s per-device transcript is unaffected by draining. *)
let push_input t ~device words =
  if device < 0 || device >= t.ndev then invalid_arg "Fed.push_input: no such device";
  List.iter (fun w -> Queue.add (w land 0xffff) t.queues.(device)) words

let take_outputs t =
  let xs = List.of_seq (Queue.to_seq t.out_q) in
  Queue.clear t.out_q;
  xs

let event t n e = t.events <- (n, e) :: t.events
let shard_of t c = shard_of_spec t.spec c

(* -- Fault application ------------------------------------------------------ *)

(* Machine-level faults strike the kernel instance that actually hosts the
   damaged domain — the same physical events Campaign injects against a
   single kernel, located in the federation by its placement. *)
let apply_at t s f = Campaign.strike t.kernels.(s) f

let apply_fault t n (f : Fault_plan.fault) =
  match f with
  | Shard_crash { shard } ->
    let s = shard mod t.nshards in
    if t.powered.(s) then begin
      Sue.crash t.kernels.(s);
      t.powered.(s) <- false;
      event t n (Node_crashed s)
    end
  | Link_partition { link; window } ->
    let w = link mod t.nwires in
    if Net.wire_up t.net ~wire:w then begin
      Net.set_wire_up t.net ~wire:w false;
      t.heals <- (n + max 1 window, w) :: t.heals;
      event t n (Link_down w)
    end
  | Frame_tamper { link } ->
    let w = link mod t.nwires in
    let hit = Net.tamper t.net ~wire:w (fun m -> Some (m ^ "!")) in
    event t n (Link_tampered (w, hit))
  | Mem_flip { colour; _ } | Saved_reg_flip { colour; _ } -> apply_at t (shard_of t colour) f
  | Guard_smash { index } -> apply_at t (index mod t.nshards) f
  | Chan_flip { chan; which; _ } -> begin
    match List.nth_opt t.spec.fs_cfg.Config.channels chan with
    | None -> ()
    | Some ch ->
      let c =
        match which with
        | Fault_plan.Send_end -> ch.Config.sender
        | Fault_plan.Recv_end -> ch.Config.receiver
      in
      apply_at t (shard_of t c) f
  end
  | Rx_latch_flip { device; _ } | Spurious_irq { device } ->
    apply_at t t.device_shard.(device) f
  | Drop_input { device } -> t.pending_drops <- device :: t.pending_drops
  | Duplicate_irq { device } -> t.dup_after <- device :: t.dup_after
  | Stuck_device { device } -> t.stuck <- device :: t.stuck

(* -- Rings at the NIC boundary ---------------------------------------------- *)

(* The source NIC drains the send end of a cut inter-shard channel — the
   buffer SEND fills and nothing in-kernel ever empties — exactly as a
   channel-to-wire bridge would, leaving the ring in the state [capacity]
   successive RECVs would have left it. *)
let drain_send_ring t rt =
  let m = Sue.machine t.kernels.(rt.rt_src) in
  let area = rt.rt_send_area and cap = rt.rt_cap in
  let head = Machine.read_phys m area and count = Machine.read_phys m (area + 1) in
  if count = 0 then []
  else begin
    let words = List.init count (fun i -> Machine.read_phys m (area + 2 + ((head + i) mod cap))) in
    Machine.write_phys m area ((head + count) mod cap);
    Machine.write_phys m (area + 1) 0;
    words
  end

(* The destination NIC feeds the receive end — the "never-fed second
   buffer" of the wire-cutting argument, fed here by the wire itself.
   Ring backpressure holds words in [pending_in]; a powered-off node's
   NIC accepts nothing (the words wait, the link layer has already
   acknowledged them, exactly-once delivery is the pending queue's job). *)
let inject t rt =
  let q = t.pending_in.(rt.rt_chan) in
  if (not (Queue.is_empty q)) && t.powered.(rt.rt_dst) then begin
    let m = Sue.machine t.kernels.(rt.rt_dst) in
    let area = rt.rt_recv_area and cap = rt.rt_cap in
    let blocked = ref false in
    while (not !blocked) && not (Queue.is_empty q) do
      let head = Machine.read_phys m area and count = Machine.read_phys m (area + 1) in
      if count >= cap then blocked := true
      else begin
        Machine.write_phys m (area + 2 + ((head + count) mod cap)) (Queue.pop q);
        Machine.write_phys m (area + 1) (count + 1)
      end
    done
  end

(* -- Net output collection -------------------------------------------------- *)

(* Every step hands each box's log over once and keeps only the frames
   its router re-emitted: the net retains nothing between steps, so a
   step's collection costs the frames that arrived in it. *)
(* A router hands a repeated heartbeat back as the same string, so the
   last few arrivals are kept with their parse and matched physically:
   each shard's heartbeat is parsed once, not every period. *)
let parse_arrival t m =
  let rec find i =
    if i = Array.length t.parsed then begin
      let p = Option.map (fun (_, p) -> parse_payload p) (split_wire m) in
      t.parsed.(t.parsed_next) <- Some (m, p);
      t.parsed_next <- (t.parsed_next + 1) mod Array.length t.parsed;
      p
    end
    else
      match t.parsed.(i) with Some (m', p) when m' == m -> p | Some _ | None -> find (i + 1)
  in
  find 0

let collect t colour f =
  List.iter
    (function
      | Component.Did (Component.Output m) -> f (parse_arrival t m)
      | Component.Saw _ | Component.Did (Component.Send _) -> ())
    (Net.hand_over t.net colour)

let collect_ctrl t n =
  collect t t.ctrl_colour (function
    | Some (P_hb s) when s >= 0 && s < t.nshards -> t.last_seen.(s) <- n
    | _ ->
      t.frame_rejects <- t.frame_rejects + 1;
      event t n (Frame_rejected (-1)))

let collect_shard t n s =
  collect t t.node_colour.(s) (function
    | Some (P_chan (c, ws)) when c < Array.length t.pending_in ->
      List.iter (fun w -> Queue.add w t.pending_in.(c)) ws;
      t.delivered <- t.delivered + List.length ws
    | _ ->
      t.frame_rejects <- t.frame_rejects + 1;
      event t n (Frame_rejected s))

(* -- The supervisor --------------------------------------------------------- *)

let failover t n s =
  if t.node_reboots.(s) >= t.policy.fp_max_node_reboots then begin
    if t.state.(s) <> Abandoned then begin
      t.state.(s) <- Abandoned;
      event t n (Node_abandoned s)
    end
  end
  else begin
    t.node_reboots.(s) <- t.node_reboots.(s) + 1;
    t.powered.(s) <- true;
    let revived = Sue.warm_reboot t.kernels.(s) in
    (* The monitor rides the node: the power failure killed its watch
       too, and the rebooted node starts a fresh one. Keeping the old
       bucket tables would compare post-rollback states against the
       discarded pre-crash timeline — states the checkpoint fence
       specifically un-happened. The dead watch is retired, not dropped,
       so its deep checks and any violation it had already flagged still
       reach the report. *)
    (match t.watches.(s) with
    | Some w ->
      t.retired_watches <- (s, w) :: t.retired_watches;
      t.watches.(s) <-
        Some
          (Monitor.watch ~period:t.policy.fp_monitor_period ~sanction_channels:true
             ~inputs:(shard_alphabet t.spec t.device_shard s)
             t.kernels.(s))
    | None -> ());
    t.state.(s) <- Up;
    t.last_seen.(s) <- n;
    event t n (Node_failover (s, revived))
  end

(* Deterministic crash detection: a shard that has not heartbeat within
   the timeout is declared down. An out-of-band power probe (the one
   thing a real supervisor's management plane gives it) separates a dead
   node — warm-reboot it from its regimes' checkpoints, within budget —
   from an unreachable one, whose regimes are parked at the federation
   boundary (their external input held, audited) until its heartbeats
   return. *)
let supervise t n =
  for s = 0 to t.nshards - 1 do
    match t.state.(s) with
    | Abandoned -> ()
    | Quarantined ->
      if not t.powered.(s) then failover t n s
      else if t.last_seen.(s) >= t.quarantined_at.(s) then begin
        t.state.(s) <- Up;
        event t n (Node_rejoined s)
      end
    | Up ->
      if n - t.last_seen.(s) > t.policy.fp_hb_timeout then begin
        event t n (Node_down_detected s);
        if not t.powered.(s) then failover t n s
        else begin
          t.state.(s) <- Quarantined;
          t.quarantined_at.(s) <- n;
          event t n (Node_quarantined (s, hosted t.spec s))
        end
      end
  done

(* -- Stepping --------------------------------------------------------------- *)

let force_stuck t =
  List.iter
    (fun d ->
      let m = Sue.machine t.kernels.(t.device_shard.(d)) in
      let data, _ = Machine.device_regs m d in
      Machine.set_device_regs m d ~data ~status:0)
    t.stuck

let step t =
  let n = t.step_no in
  (* Heals due this step come first: a partition window of w steps means
     the wire is down for exactly w federation steps. *)
  let due_heals, heals = List.partition (fun (at, _) -> at <= n) t.heals in
  t.heals <- heals;
  List.iter
    (fun (_, w) ->
      if not (Net.wire_up t.net ~wire:w) then begin
        Net.set_wire_up t.net ~wire:w true;
        event t n (Link_healed w)
      end)
    due_heals;
  let due, rest = List.partition (fun (at, _) -> at <= n) t.schedule in
  t.schedule <- rest;
  List.iter (fun (_, f) -> apply_fault t n f) due;
  (* Egress: every powered NIC drains its outbound channel ends onto
     their wires and emits its periodic heartbeat. A powered-off node is
     silent — that silence is what the supervisor detects. *)
  let externals = ref [] in
  for s = t.nshards - 1 downto 0 do
    if t.powered.(s) then begin
      (* A ring drain leaves as one frame however many words it held;
         one checksum covers them all (see Frames). *)
      Array.iter
        (fun rt ->
          match List.rev (drain_send_ring t rt) with
          | [] -> ()
          | words ->
            externals :=
              (t.node_colour.(s), on_wire rt.rt_wire (batch_msg rt.rt_chan words)) :: !externals)
        t.routes_from.(s);
      if n mod t.policy.fp_hb_period = 0 then externals := t.hb_external.(s) :: !externals
    end
  done;
  Net.step t.net ~externals:!externals;
  collect_ctrl t n;
  for s = 0 to t.nshards - 1 do
    collect_shard t n s
  done;
  Array.iter (fun rt -> inject t rt) t.routes;
  (* External arrivals flow-controlled per device, as in Campaign: a word
     queues until its Rx latch is free, so every regime consumes the same
     word sequence however the shards interleave. A quarantined shard's
     devices are additionally held at the boundary — parked, not lost.
     This is not {!Campaign.drive}'s loop: here faults strike before the
     input is built, and a stuck device keeps its word queued where the
     campaign's wrapper pops and discards it. *)
  List.iter (fun (d, w) -> if d >= 0 && d < t.ndev then Queue.add w t.queues.(d)) (t.inputs n);
  force_stuck t;
  for s = 0 to t.nshards - 1 do
    if t.powered.(s) then begin
      let m = Sue.machine t.kernels.(s) in
      let input = ref [] in
      if t.state.(s) <> Quarantined then
        Array.iter
          (fun d ->
            if
              (not (Queue.is_empty t.queues.(d)))
              && (not (List.mem d t.stuck))
              && Machine.device_status m d = 0
            then
              if List.mem d t.pending_drops then begin
                t.pending_drops <- Campaign.remove_one d t.pending_drops;
                ignore (Queue.pop t.queues.(d))
              end
              else input := (d, Queue.pop t.queues.(d)) :: !input)
          t.shard_devices.(s);
      let input = List.rev !input in
      let out = Sue.step t.kernels.(s) input in
      List.iter
        (fun (d, w) ->
          if t.device_shard.(d) = s then begin
            t.flat_out <- (d, w) :: t.flat_out;
            Queue.add (d, w) t.out_q
          end)
        out;
      force_stuck t;
      ignore (Recover.tick t.recovers.(s));
      match t.watches.(s) with Some w -> Monitor.observe w | None -> ()
    end
  done;
  List.iter
    (fun d -> Machine.raise_irq (Sue.machine t.kernels.(t.device_shard.(d))) d)
    t.dup_after;
  t.dup_after <- [];
  supervise t n;
  t.step_no <- n + 1

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

(* -- Observation ------------------------------------------------------------ *)

type observation = {
  fob_outputs : (int * int list) list;
  fob_status : (Colour.t * Abstract_regime.status) list;
  fob_detections : Sue.kernel_fault list;
  fob_recoveries : Sue.kernel_fault list;
  fob_wd_fires : int;
  fob_events : (int * node_event) list;
  fob_frame_rejects : int;
  fob_delivered : int;
  fob_abandoned_nodes : int list;
  fob_gave_up : Colour.t list;
  fob_stats : Net.link_stats;
  fob_deep_checks : int;
  fob_first_violation : (int * int) option;
}

let finish t =
  for s = 0 to t.nshards - 1 do
    if t.powered.(s) then begin
      ignore (Sue.guard_sweep t.kernels.(s));
      ignore (Recover.tick t.recovers.(s))
    end
  done;
  let detections = ref [] and recoveries = ref [] and wd = ref 0 in
  for s = 0 to t.nshards - 1 do
    let recs, corrupt, fires = Campaign.split_audit (Sue.drain_faults t.kernels.(s)) in
    detections := !detections @ corrupt;
    recoveries := !recoveries @ recs;
    wd := !wd + fires
  done;
  let per_dev = Array.make (max 1 t.ndev) [] in
  List.iter (fun (d, w) -> per_dev.(d) <- w :: per_dev.(d)) (List.rev t.flat_out);
  let fob_outputs = List.init t.ndev (fun d -> (d, List.rev per_dev.(d))) in
  let fob_status =
    List.map
      (fun c -> (c, Sue.regime_status t.kernels.(shard_of t c) c))
      (Config.colours t.spec.fs_cfg)
  in
  let fob_deep_checks =
    Array.fold_left
      (fun acc w -> match w with Some w -> acc + Monitor.deep_checks w | None -> acc)
      0 t.watches
    + List.fold_left (fun acc (_, w) -> acc + Monitor.deep_checks w) 0 t.retired_watches
  in
  let fob_first_violation =
    let violations =
      List.filter_map Fun.id
        (List.init t.nshards (fun s ->
             match t.watches.(s) with
             | Some w ->
               Option.map (fun (st, _) -> (s, st)) (Monitor.watch_first_violation w)
             | None -> None))
      @ List.filter_map
          (fun (s, w) -> Option.map (fun (st, _) -> (s, st)) (Monitor.watch_first_violation w))
          t.retired_watches
    in
    match List.sort (fun (_, a) (_, b) -> compare a b) violations with
    | first :: _ -> Some first
    | [] -> None
  in
  let fob_abandoned_nodes =
    List.filter (fun s -> t.state.(s) = Abandoned) (List.init t.nshards Fun.id)
  in
  let fob_gave_up =
    List.concat (List.init t.nshards (fun s -> Recover.abandoned t.recovers.(s)))
  in
  {
    fob_outputs;
    fob_status;
    fob_detections = !detections;
    fob_recoveries = !recoveries;
    fob_wd_fires = !wd;
    fob_events = List.rev t.events;
    fob_frame_rejects = t.frame_rejects;
    fob_delivered = t.delivered;
    fob_abandoned_nodes;
    fob_gave_up;
    fob_stats = Net.link_stats t.net;
    fob_deep_checks;
    fob_first_violation;
  }

let device_owner_colour t d = t.device_colour.(d)

let run_to_json ~steps ~ideal_mismatches spec ob =
  J.Obj
    [
      ("kind", J.String "fed-run");
      ("scenario", J.String spec.fs_label);
      ("steps", J.Int steps);
      ("delivered", J.Int ob.fob_delivered);
      ("frame_rejects", J.Int ob.fob_frame_rejects);
      ("events", J.List (List.map (fun (_, e) -> node_event_to_json e) ob.fob_events));
      ("stats", Net.link_stats_to_json ob.fob_stats);
      ("ideal_mismatches", J.List (List.map (fun m -> J.String m) ideal_mismatches));
    ]
