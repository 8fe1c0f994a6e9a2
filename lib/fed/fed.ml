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

let pp_node_event ppf = function
  | Node_crashed s -> Fmt.pf ppf "node %d crashed" s
  | Node_down_detected s -> Fmt.pf ppf "node %d declared down (heartbeat timeout)" s
  | Node_failover (s, cs) ->
    Fmt.pf ppf "node %d failover: revived %a" s Fmt.(list ~sep:comma Colour.pp) cs
  | Node_abandoned s -> Fmt.pf ppf "node %d abandoned (reboot budget exhausted)" s
  | Node_quarantined (s, cs) ->
    Fmt.pf ppf "node %d quarantined: %a parked at the boundary" s Fmt.(list ~sep:comma Colour.pp) cs
  | Node_rejoined s -> Fmt.pf ppf "node %d rejoined" s
  | Link_down w -> Fmt.pf ppf "link %d partitioned" w
  | Link_healed w -> Fmt.pf ppf "link %d healed" w
  | Link_tampered (w, n) -> Fmt.pf ppf "link %d tampered (%d frames forged)" w n
  | Frame_rejected s ->
    if s < 0 then Fmt.pf ppf "control node rejected a frame"
    else Fmt.pf ppf "node %d rejected a frame (bad checksum)" s

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

(* Inter-shard frames are strings on Net wires: "ch|<chan>|<word>|<ck>"
   for channel words, "hb|<shard>" for heartbeats. The checksum is the
   end-to-end integrity check the federation adds on top of the link
   protocol: the go-back-N layer recovers loss, the checksum rejects
   forgery. *)
let cksum chan word = ((chan * 131) + (word * 31) + 7) land 0xffff

(* The legacy single-word frame encoder: emission is all-batch now, but
   the format stays decodable (and encodable, for mixed-version tests). *)
let[@warning "-32"] chan_msg chan word = Printf.sprintf "ch|%d|%d|%d" chan word (cksum chan word)

(* A batched frame carries a whole ring drain in one go:
   "cb|<chan>|<n>|<w0>,<w1>,...|<ck>". The checksum folds every word, so
   dropping, reordering or forging any word inside the batch is caught
   exactly as it would be frame-by-frame. Single-word "ch|" frames stay
   parseable for mixed-version traffic. *)
let batch_cksum chan words =
  List.fold_left (fun acc w -> ((acc * 31) + w + 11) land 0xffff) (((chan * 131) + 7) land 0xffff) words

let batch_msg chan words =
  Printf.sprintf "cb|%d|%d|%s|%d" chan (List.length words)
    (String.concat "," (List.map string_of_int words))
    (batch_cksum chan words)

let hb_msg shard = Printf.sprintf "hb|%d" shard

type payload =
  | P_hb of int
  | P_chan of int * int list
  | P_bad

let parse_payload s =
  match String.split_on_char '|' s with
  | [ "hb"; sh ] -> ( match int_of_string_opt sh with Some s -> P_hb s | None -> P_bad)
  | [ "ch"; c; w; k ] -> (
    match (int_of_string_opt c, int_of_string_opt w, int_of_string_opt k) with
    | Some c, Some w, Some k when k = cksum c w && c >= 0 -> P_chan (c, [ w ])
    | _ -> P_bad)
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
let split_wire m =
  match String.index_opt m '|' with
  | None -> None
  | Some i -> (
    match int_of_string_opt (String.sub m 0 i) with
    | Some w when w >= 0 -> Some (w, String.sub m (i + 1) (String.length m - i - 1))
    | _ -> None)

let router name =
  Component.stateless ~name (fun ev ->
      match ev with
      | Component.External m -> (
        match split_wire m with Some (w, p) -> [ Component.Send (w, p) ] | None -> [])
      | Component.Recv (w, m) -> [ Component.Output (Printf.sprintf "%d|%s" w m) ])

(* -- Per-shard configurations ----------------------------------------------- *)

(* Every shard carries the full global regime and device layout — absent
   regimes run an inert yield loop in their (untouched) partitions — so
   physical addresses, global device ids and channel areas agree across
   the federation, and the monolithic ideal. A channel whose endpoints
   live on different shards is cut everywhere: its send end is drained by
   the source NIC, its receive end fed by the destination NIC, which is
   the wire-cutting argument realised as an actual wire. *)
let inert_program = [ Isa.Label "loop"; Isa.Instr (Isa.Trap 0); Isa.Branch "loop" ]

let shard_config spec s =
  let regimes =
    List.map
      (fun r ->
        if shard_of_spec spec r.Config.colour = s then r
        else { r with Config.program = inert_program })
      spec.fs_cfg.Config.regimes
  in
  let channels =
    List.map
      (fun ch ->
        let inter = shard_of_spec spec ch.Config.sender <> shard_of_spec spec ch.Config.receiver in
        { ch with Config.cut = ch.Config.cut || inter })
      spec.fs_cfg.Config.channels
  in
  { spec.fs_cfg with Config.regimes; channels }

(* -- The federation --------------------------------------------------------- *)

type shard_state =
  | Up
  | Quarantined
  | Abandoned

type route = {
  rt_chan : int;
  rt_src : int;
  rt_dst : int;
  rt_wire : int;
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
  hb_wires : int array; (* shard -> its heartbeat wire id *)
  node_colour : Colour.t array;
  ctrl_colour : Colour.t;
  ndev : int;
  device_shard : int array;
  device_colour : Colour.t array;
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
  out_cursor : int array; (* Net outputs consumed, per shard node *)
  mutable ctrl_cursor : int;
  mutable flat_out : (int * int) list; (* newest first *)
  out_q : (int * int) Queue.t; (* same outputs, drained by take_outputs *)
  mutable pending_drops : int list;
  mutable stuck : int list;
  mutable dup_after : int list;
  mutable retired_watches : (int * Monitor.swatch) list;
      (* watches that died with their node at a failover; kept so their
         deep-check counts and any pre-crash violation still surface *)
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
  let routes =
    Array.of_list
      (List.mapi
         (fun i ch ->
           {
             rt_chan = ch.Config.chan_id;
             rt_src = shard_of_spec spec ch.Config.sender;
             rt_dst = shard_of_spec spec ch.Config.receiver;
             rt_wire = i;
           })
         inter)
  in
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
  let topo =
    Topology.make
      ~parts:
        (List.init nshards (fun s ->
             (node_colour.(s), router (Printf.sprintf "node%d" s)))
        @ [ (ctrl_colour, router "ctrl") ])
      ~wires:(data_wires @ List.init nshards (fun s -> (node_colour.(s), ctrl_colour, 4)))
  in
  (* Zero fault rates but a link model nonetheless: every line runs the
     reliable go-back-N protocol, so partitions cost latency, not words —
     the sender's pending queue is the federation's retransmission buffer. *)
  let net = Net.build ~link:{ Net.lm_seed = 42; lm_drop = 0; lm_dup = 0; lm_reorder = 0 } topo in
  let kernels = Array.init nshards (fun s -> Sue.build (shard_config spec s)) in
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
    nwires = Array.length routes + nshards;
    kernels;
    recovers;
    watches;
    net;
    routes;
    hb_wires;
    node_colour;
    ctrl_colour;
    ndev;
    device_shard;
    device_colour;
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
    out_cursor = Array.make nshards 0;
    ctrl_cursor = 0;
    flat_out = [];
    out_q = Queue.create ();
    pending_drops = [];
    stuck = [];
    dup_after = [];
    retired_watches = [];
  }

let kernel t ~shard = t.kernels.(shard)
let net t = t.net
let shards t = t.nshards
let links t = t.nwires
let powered t ~shard = t.powered.(shard)
let shard_state t ~shard = t.state.(shard)
let step_no t = t.step_no
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

let flip_phys m a bit = Machine.write_phys m a (Machine.read_phys m a lxor (1 lsl bit))

(* Machine-level faults strike the kernel instance that actually hosts the
   damaged domain — the same physical events Campaign injects against a
   single kernel, located in the federation by its placement. *)
let apply_at t s (f : Fault_plan.fault) =
  let k = t.kernels.(s) in
  let m = Sue.machine k in
  match f with
  | Mem_flip { colour; offset; bit } ->
    let base, size = Sue.partition_bounds k colour in
    flip_phys m (base + (offset mod size)) bit
  | Saved_reg_flip { colour; slot; bit } -> flip_phys m (Sue.save_area_base k colour + slot) bit
  | Guard_smash { index } ->
    let guards = Array.of_list (Sue.guard_addrs k) in
    flip_phys m guards.(index mod Array.length guards) 7
  | Chan_flip { chan; which; word; bit } -> begin
    match Sue.channel_area k chan with
    | None -> ()
    | Some (send_area, recv_area, cap) ->
      let area =
        match which with Fault_plan.Send_end -> send_area | Fault_plan.Recv_end -> recv_area
      in
      flip_phys m (area + (word mod (cap + 2))) bit
  end
  | Rx_latch_flip { device; bit } ->
    let data, status = Machine.device_regs m device in
    Machine.set_device_regs m device ~data:(data lxor (1 lsl bit)) ~status
  | Spurious_irq { device } -> Machine.raise_irq m device
  | _ -> ()

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
let drain_send_ring t s chan =
  let k = t.kernels.(s) in
  match Sue.channel_area k chan with
  | None -> []
  | Some (area_a, _, cap) ->
    let m = Sue.machine k in
    let head = Machine.read_phys m area_a and count = Machine.read_phys m (area_a + 1) in
    if count = 0 then []
    else begin
      let words = List.init count (fun i -> Machine.read_phys m (area_a + 2 + ((head + i) mod cap))) in
      Machine.write_phys m area_a ((head + count) mod cap);
      Machine.write_phys m (area_a + 1) 0;
      words
    end

(* The destination NIC feeds the receive end — the "never-fed second
   buffer" of the wire-cutting argument, fed here by the wire itself.
   Ring backpressure holds words in [pending_in]; a powered-off node's
   NIC accepts nothing (the words wait, the link layer has already
   acknowledged them, exactly-once delivery is the pending queue's job). *)
let inject t rt =
  if t.powered.(rt.rt_dst) then begin
    let k = t.kernels.(rt.rt_dst) in
    match Sue.channel_area k rt.rt_chan with
    | None -> ()
    | Some (_, area_b, cap) ->
      let m = Sue.machine k in
      let q = t.pending_in.(rt.rt_chan) in
      let blocked = ref false in
      while (not !blocked) && not (Queue.is_empty q) do
        let head = Machine.read_phys m area_b and count = Machine.read_phys m (area_b + 1) in
        if count >= cap then blocked := true
        else begin
          Machine.write_phys m (area_b + 2 + ((head + count) mod cap)) (Queue.pop q);
          Machine.write_phys m (area_b + 1) (count + 1)
        end
      done
  end

(* -- Net output collection -------------------------------------------------- *)

let collect_ctrl t n =
  let outs = Net.outputs t.net t.ctrl_colour in
  let fresh = List.filteri (fun i _ -> i >= t.ctrl_cursor) outs in
  t.ctrl_cursor <- List.length outs;
  List.iter
    (fun m ->
      match Option.map (fun (_, p) -> parse_payload p) (split_wire m) with
      | Some (P_hb s) when s >= 0 && s < t.nshards -> t.last_seen.(s) <- n
      | _ ->
        t.frame_rejects <- t.frame_rejects + 1;
        event t n (Frame_rejected (-1)))
    fresh

let collect_shard t n s =
  let outs = Net.outputs t.net t.node_colour.(s) in
  let fresh = List.filteri (fun i _ -> i >= t.out_cursor.(s)) outs in
  t.out_cursor.(s) <- List.length outs;
  List.iter
    (fun m ->
      match Option.map (fun (_, p) -> parse_payload p) (split_wire m) with
      | Some (P_chan (c, ws)) when c < Array.length t.pending_in ->
        List.iter (fun w -> Queue.add w t.pending_in.(c)) ws;
        t.delivered <- t.delivered + List.length ws
      | _ ->
        t.frame_rejects <- t.frame_rejects + 1;
        event t n (Frame_rejected s))
    fresh

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

let remove_one x xs =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest -> if y = x then List.rev_append acc rest else go (y :: acc) rest
  in
  go [] xs

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
      (* Batched NIC copies: one frame per drained ring, however many
         words it held — the ROADMAP's first federation throughput
         optimization. A single-word drain still rides the batch frame;
         the legacy per-word codec remains accepted on arrival. *)
      Array.iter
        (fun rt ->
          if rt.rt_src = s then
            match List.rev (drain_send_ring t s rt.rt_chan) with
            | [] -> ()
            | words ->
              externals :=
                (t.node_colour.(s), Printf.sprintf "%d|%s" rt.rt_wire (batch_msg rt.rt_chan words))
                :: !externals)
        t.routes;
      if n mod t.policy.fp_hb_period = 0 then
        externals :=
          (t.node_colour.(s), Printf.sprintf "%d|%s" t.hb_wires.(s) (hb_msg s)) :: !externals
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
     devices are additionally held at the boundary — parked, not lost. *)
  List.iter (fun (d, w) -> if d >= 0 && d < t.ndev then Queue.add w t.queues.(d)) (t.inputs n);
  force_stuck t;
  for s = 0 to t.nshards - 1 do
    if t.powered.(s) then begin
      let m = Sue.machine t.kernels.(s) in
      let input =
        if t.state.(s) = Quarantined then []
        else
          List.concat
            (List.init t.ndev (fun d ->
                 if
                   t.device_shard.(d) = s
                   && (not (Queue.is_empty t.queues.(d)))
                   && (not (List.mem d t.stuck))
                   && snd (Machine.device_regs m d) = 0
                 then
                   if List.mem d t.pending_drops then begin
                     t.pending_drops <- remove_one d t.pending_drops;
                     ignore (Queue.pop t.queues.(d));
                     []
                   end
                   else [ (d, Queue.pop t.queues.(d)) ]
                 else []))
      in
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
    let recs, rest =
      List.partition
        (function Sue.Regime_restart _ | Sue.Warm_reboot -> true | _ -> false)
        (Sue.drain_faults t.kernels.(s))
    in
    let corrupt, wdl = List.partition (function Sue.Watchdog_expired _ -> false | _ -> true) rest in
    detections := !detections @ corrupt;
    recoveries := !recoveries @ recs;
    wd := !wd + List.length wdl
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
