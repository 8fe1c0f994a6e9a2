module Colour = Sep_model.Colour
module Component = Sep_model.Component
module Topology = Sep_model.Topology
module Fifo = Sep_util.Fifo
module Prng = Sep_util.Prng

type link_model = {
  lm_seed : int;
  lm_drop : int;
  lm_dup : int;
  lm_reorder : int;
}

let default_link_model = { lm_seed = 42; lm_drop = 10; lm_dup = 5; lm_reorder = 5 }

(* A sequence-numbered frame on a reliable line. [born] is the net step
   at which the sender accepted the word (for the end-to-end latency
   histogram); [flow] is the causal-trace edge id tying the send to the
   eventual in-order delivery (0 when tracing is off). Retransmitted
   copies keep both: the latency measured is send-accept to delivery,
   retransmissions included — the latency the receiving box experiences. *)
type frame = { seq : int; payload : Component.message; born : int; flow : int }

(* The data line of a reliable wire: frames in transit, head arrives
   first. The newest frame is held apart from the rest, so the link model
   can splice a queue-jumper in just ahead of it as cheaply as it appends.
   Invariant: [newest] is [None] only when [ahead] is empty too. *)
type line = {
  ahead : frame Queue.t;  (* every frame in transit but the newest *)
  mutable newest : frame option;
}

let line_is_empty l = Option.is_none l.newest
let line_length l = Queue.length l.ahead + if line_is_empty l then 0 else 1

let line_append l f =
  Option.iter (fun n -> Queue.add n l.ahead) l.newest;
  l.newest <- Some f

(* Only on a non-empty line: the frame lands just before the newest. *)
let line_jump l f = Queue.add f l.ahead

let line_pop l =
  if Queue.is_empty l.ahead then begin
    let f = Option.get l.newest in
    l.newest <- None;
    f
  end
  else Queue.pop l.ahead

let line_clear l =
  Queue.clear l.ahead;
  l.newest <- None

let line_frames l = List.of_seq (Queue.to_seq l.ahead) @ Option.to_list l.newest

(* Per-wire state of the reliable protocol: a go-back-N sender (window =
   the wire's capacity, cumulative acks, timeout retransmission with
   capped exponential backoff) and an in-order receiver that delivers
   exactly the sequence the sender accepted, whatever the line loses,
   duplicates or reorders. Window, data line and reverse ack line are
   queues, head first, so a step costs the frames it moves. *)
type rel_wire = {
  mutable r_next_seq : int;  (* next sequence number to assign *)
  r_pending : frame Queue.t;  (* accepted, waiting for a window slot *)
  r_unacked : frame Queue.t;  (* in the window, oldest (lowest seq) first *)
  mutable r_timer : int;  (* steps until retransmission; 0 = idle *)
  mutable r_rto : int;  (* current timeout, doubled per expiry *)
  r_data : line;  (* frames in transit *)
  r_acks : int Queue.t;  (* cumulative acks in transit to the sender *)
  mutable r_expect : int;  (* receiver: next in-order sequence number *)
  mutable r_ack_due : bool;
  r_window : int;
}

type link_stats = {
  ls_in_flight : int;
  ls_drops : int;
  ls_lossy_drops : int;
  ls_retransmits : int;
  ls_acks : int;
  ls_backoff_ceiling : int;
  ls_partition_drops : int;
}

type node = {
  colour : Colour.t;
  inst : Component.instance;
  incoming : Topology.wire list;  (* in wire-id order *)
  mutable log : Component.obs list;  (* since the last hand-over, newest first *)
}

type t = {
  topo : Topology.t;
  wires : Topology.wire array;  (* indexed by wire id *)
  nodes : node list;  (* in topology order *)
  lines : Component.message Fifo.t array;  (* indexed by wire id; raw wires only *)
  rel : rel_wire option array;  (* indexed by wire id; [Some] iff reliable *)
  link : link_model option;
  rng : Prng.t option;
  up : bool array;  (* indexed by wire id; [false] while the line is partitioned *)
  ready : bool array;  (* indexed by wire id; reused each step: a delivery is due *)
  mutable dropped : int;
  mutable lossy_dropped : int;
  mutable partition_dropped : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable backoff_ceiling : int;
  mutable now : int;  (* global step counter, for latency measurement *)
  tel : Sep_obs.Telemetry.t;  (* this net's own metric registry *)
  lat : Sep_obs.Telemetry.histogram;  (* net.latency.steps: send-accept -> in-order delivery *)
  rq : Sep_obs.Telemetry.gauge;  (* net.retransmit_queue: frames in sender windows *)
  rq_global : Sep_obs.Telemetry.gauge;  (* the same gauge on the domain's span registry *)
}

let rto_base = 3
let rto_cap = 24  (* rto_base * 8: the backoff ceiling *)

let build ?link topo =
  (match Topology.validate topo with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Net.build: " ^ msg));
  (match link with
  | Some lm ->
    if lm.lm_drop < 0 || lm.lm_drop > 99 || lm.lm_dup < 0 || lm.lm_dup > 99
       || lm.lm_reorder < 0 || lm.lm_reorder > 99
    then invalid_arg "Net.build: link model percentages must be within 0..99"
  | None -> ());
  let node (colour, comp) =
    let incoming =
      List.sort (fun a b -> Int.compare a.Topology.wire_id b.Topology.wire_id) (Topology.wires_into topo colour)
    in
    { colour; inst = Component.instantiate comp; incoming; log = [] }
  in
  let rel_of w =
    match link with
    | None -> None
    | Some _ ->
      Some
        {
          r_next_seq = 0;
          r_pending = Queue.create ();
          r_unacked = Queue.create ();
          r_timer = 0;
          r_rto = rto_base;
          r_data = { ahead = Queue.create (); newest = None };
          r_acks = Queue.create ();
          r_expect = 0;
          r_ack_due = false;
          r_window = max 1 w.Topology.capacity;
        }
  in
  let tel = Sep_obs.Telemetry.create () in
  let nwires = List.length topo.Topology.wires in
  {
    topo;
    wires = Array.of_list topo.Topology.wires;
    nodes = List.map node topo.Topology.parts;
    lines =
      Array.of_list (List.map (fun w -> Fifo.create ~capacity:w.Topology.capacity) topo.Topology.wires);
    rel = Array.of_list (List.map rel_of topo.Topology.wires);
    link;
    (* [roll] is the generator's only reader, and a zero rate never fires:
       a line whose rates are all zero needs no draws *)
    rng =
      (match link with
      | Some lm when lm.lm_drop > 0 || lm.lm_dup > 0 || lm.lm_reorder > 0 ->
        Some (Prng.create lm.lm_seed)
      | Some _ | None -> None);
    up = Array.make nwires true;
    ready = Array.make nwires false;
    dropped = 0;
    lossy_dropped = 0;
    partition_dropped = 0;
    retransmits = 0;
    acks_sent = 0;
    backoff_ceiling = 0;
    now = 0;
    tel;
    lat = Sep_obs.Telemetry.histogram tel "net.latency.steps";
    rq = Sep_obs.Telemetry.gauge tel "net.retransmit_queue";
    rq_global = Sep_obs.Telemetry.gauge (Sep_obs.Span.local ()) "net.retransmit_queue";
  }

(* -- The lossy line ---------------------------------------------------------- *)

let roll t p =
  match t.rng with
  | Some rng -> Prng.int rng 100 < p
  | None -> false

(* Put a frame on the line through the link model: it may be destroyed,
   duplicated, or spliced in just before the last frame in transit (so a
   later frame arrives first — an out-of-order line). A partitioned line
   ([up.(id)] false) carries nothing: the placement vanishes without even
   consulting the link model, exactly like a transmitter keying into a
   severed cable. *)
let place_data t id rw fr =
  if not t.up.(id) then t.partition_dropped <- t.partition_dropped + 1
  else
  match t.link with
  | None -> ()
  | Some lm ->
    if roll t lm.lm_drop then t.lossy_dropped <- t.lossy_dropped + 1
    else begin
      (* the reorder roll is drawn even on an empty line *)
      let insert f =
        if roll t lm.lm_reorder && not (line_is_empty rw.r_data) then line_jump rw.r_data f
        else line_append rw.r_data f
      in
      insert fr;
      if roll t lm.lm_dup then insert fr
    end

(* -- The reliable sender ------------------------------------------------------ *)

(* One maintenance round per wire per step, before any delivery: field the
   arriving ack (cumulative — it retires every frame up to it and resets
   the backoff), run the retransmission timer (expiry resends the whole
   window, go-back-N style, and doubles the timeout up to the ceiling),
   then move pending frames into free window slots. A wire with no ack in
   transit, an empty window and nothing pending has nothing to do. Returns
   the frames left in the sender windows. *)
let rel_maintenance t =
  let depth = ref 0 in
  for id = 0 to Array.length t.rel - 1 do
    match t.rel.(id) with
    | None -> ()
    | Some rw ->
      if
        not
          (Queue.is_empty rw.r_acks && Queue.is_empty rw.r_unacked
         && Queue.is_empty rw.r_pending)
      then begin
        if not (Queue.is_empty rw.r_acks) then begin
          let a = Queue.pop rw.r_acks in
          (* the window is in sequence order, so the retired frames are
             exactly its prefix up to [a] *)
          let retired = ref false in
          while (not (Queue.is_empty rw.r_unacked)) && (Queue.peek rw.r_unacked).seq <= a do
            ignore (Queue.pop rw.r_unacked);
            retired := true
          done;
          if !retired then begin
            rw.r_rto <- rto_base;
            rw.r_timer <- (if Queue.is_empty rw.r_unacked then 0 else rw.r_rto)
          end
        end;
        if not (Queue.is_empty rw.r_unacked) then begin
          if rw.r_timer > 1 then rw.r_timer <- rw.r_timer - 1
          else begin
            Queue.iter
              (fun f ->
                t.retransmits <- t.retransmits + 1;
                place_data t id rw f)
              rw.r_unacked;
            if rw.r_rto >= rto_cap then t.backoff_ceiling <- t.backoff_ceiling + 1
            else rw.r_rto <- min rto_cap (rw.r_rto * 2);
            rw.r_timer <- rw.r_rto
          end
        end;
        while Queue.length rw.r_unacked < rw.r_window && not (Queue.is_empty rw.r_pending) do
          let f = Queue.pop rw.r_pending in
          if Queue.is_empty rw.r_unacked then begin
            rw.r_rto <- rto_base;
            rw.r_timer <- rto_base
          end;
          Queue.add f rw.r_unacked;
          place_data t id rw f
        done;
        depth := !depth + Queue.length rw.r_unacked
      end
  done;
  !depth

(* Receivers' due acks go onto the reverse lines at the end of the step.
   The ack line is as lossy as the data line; a lost ack is recovered by
   the retransmission it fails to suppress, which the receiver re-acks. *)
let rel_flush_acks t =
  for id = 0 to Array.length t.rel - 1 do
    match t.rel.(id) with
    | Some rw when rw.r_ack_due ->
      rw.r_ack_due <- false;
      t.acks_sent <- t.acks_sent + 1;
      if not t.up.(id) then
        (* the reverse direction of a severed cable carries nothing
           either; the retransmission the lost ack fails to suppress
           recovers it after the heal *)
        t.partition_dropped <- t.partition_dropped + 1
      else begin
        let lost = match t.link with Some lm -> roll t lm.lm_drop | None -> false in
        if lost then t.lossy_dropped <- t.lossy_dropped + 1
        else Queue.add (rw.r_expect - 1) rw.r_acks
      end
    | Some _ | None -> ()
  done

let transmit t node actions =
  let handle = function
    | Component.Send (w, msg) as act ->
      node.log <- Component.Did act :: node.log;
      if w < 0 || w >= Array.length t.lines then t.dropped <- t.dropped + 1
      else if not (Colour.equal t.wires.(w).Topology.src node.colour) then
        (* no physical line from this box: the send goes nowhere *)
        t.dropped <- t.dropped + 1
      else if t.wires.(w).Topology.cut then () (* the line goes nowhere *)
      else begin
        match t.rel.(w) with
        | Some rw ->
          (* the reliable layer accepts every send: the pending queue is
             the sending box's local buffer, and the window provides the
             flow control a raw wire's capacity used to *)
          let flow =
            if Sep_obs.Trace.enabled () then
              Sep_obs.Trace.flow_start ~cat:"net"
                ~args:[ ("wire", Sep_util.Json.Int w); ("seq", Sep_util.Json.Int rw.r_next_seq) ]
                "send"
            else 0
          in
          Queue.add { seq = rw.r_next_seq; payload = msg; born = t.now; flow } rw.r_pending;
          rw.r_next_seq <- rw.r_next_seq + 1
        | None ->
          if not t.up.(w) then t.partition_dropped <- t.partition_dropped + 1
          else if not (Fifo.push t.lines.(w) msg) then t.dropped <- t.dropped + 1
      end
    | Component.Output _ as act -> node.log <- Component.Did act :: node.log
  in
  List.iter handle actions

let feed t node ev =
  node.log <- Component.Saw ev :: node.log;
  transmit t node (Component.feed node.inst ev)

let step t ~externals =
  t.now <- t.now + 1;
  let rq = float_of_int (rel_maintenance t) in
  Sep_obs.Telemetry.set t.rq rq;
  Sep_obs.Telemetry.set t.rq_global rq;
  (* Only messages already in flight are deliverable this step. *)
  for id = 0 to Array.length t.lines - 1 do
    t.ready.(id) <-
      (match t.rel.(id) with
      | Some rw -> not (line_is_empty rw.r_data)
      | None -> not (Fifo.is_empty t.lines.(id)))
  done;
  let visit node =
    List.iter
      (fun (c, msg) ->
        if c == node.colour || Colour.equal c node.colour then
          feed t node (Component.External msg))
      externals;
    let from_wire w =
      let id = w.Topology.wire_id in
      if t.ready.(id) then begin
        t.ready.(id) <- false;
        match t.rel.(id) with
        | Some rw ->
          let f = line_pop rw.r_data in
          if f.seq = rw.r_expect then begin
            rw.r_expect <- rw.r_expect + 1;
            rw.r_ack_due <- true;
            (* end-to-end latency: send-accept to in-order delivery *)
            Sep_obs.Telemetry.observe t.lat (float_of_int (t.now - f.born));
            if f.flow <> 0 then
              Sep_obs.Trace.flow_end ~cat:"net" ~id:f.flow
                ~args:[ ("wire", Sep_util.Json.Int id); ("seq", Sep_util.Json.Int f.seq) ]
                "deliver";
            feed t node (Component.Recv (id, f.payload))
          end
          else if rw.r_expect > 0 then
            (* a duplicate or a queue-jumper: discard, re-ack so the
               sender learns where the receiver really is *)
            rw.r_ack_due <- true
        | None -> begin
          match Fifo.pop t.lines.(id) with
          | Some msg -> feed t node (Component.Recv (id, msg))
          | None -> ()
        end
      end
    in
    List.iter from_wire node.incoming
  in
  List.iter visit t.nodes;
  rel_flush_acks t

let run t ~steps ~externals =
  for n = 0 to steps - 1 do
    step t ~externals:(externals n)
  done

let find_node t c =
  match List.find_opt (fun n -> Colour.equal n.colour c) t.nodes with
  | Some n -> n
  | None -> raise Not_found

let trace t c = List.rev (find_node t c).log

let outputs t c =
  List.filter_map
    (function Component.Did (Component.Output m) -> Some m | _ -> None)
    (trace t c)

let hand_over t c =
  let node = find_node t c in
  let log = List.rev node.log in
  node.log <- [];
  log

let in_flight t =
  let base = Array.fold_left (fun acc line -> acc + Fifo.length line) 0 t.lines in
  Array.fold_left
    (fun acc rwo -> match rwo with Some rw -> acc + line_length rw.r_data | None -> acc)
    base t.rel

let drops t = t.dropped
let telemetry t = t.tel

let link_stats t =
  {
    ls_in_flight = in_flight t;
    ls_drops = t.dropped;
    ls_lossy_drops = t.lossy_dropped;
    ls_retransmits = t.retransmits;
    ls_acks = t.acks_sent;
    ls_backoff_ceiling = t.backoff_ceiling;
    ls_partition_drops = t.partition_dropped;
  }

let link_stats_to_json s =
  let module J = Sep_util.Json in
  J.Obj
    [
      ("in_flight", J.Int s.ls_in_flight);
      ("drops", J.Int s.ls_drops);
      ("lossy_drops", J.Int s.ls_lossy_drops);
      ("retransmits", J.Int s.ls_retransmits);
      ("acks", J.Int s.ls_acks);
      ("backoff_ceiling", J.Int s.ls_backoff_ceiling);
      ("partition_drops", J.Int s.ls_partition_drops);
    ]

let pp_link_stats ppf s =
  Fmt.pf ppf
    "in-flight %d  drops %d  lossy-drops %d  retransmits %d  acks %d  backoff-ceiling %d  \
     partition-drops %d"
    s.ls_in_flight s.ls_drops s.ls_lossy_drops s.ls_retransmits s.ls_acks s.ls_backoff_ceiling
    s.ls_partition_drops

(* -- Partitions --------------------------------------------------------------

   A partition severs the physical line: everything in transit at the
   moment of the cut is lost, and nothing placed while the line is down
   arrives. The endpoints are not told — the reliable sender keeps
   retransmitting into the void (its backoff caps at [rto_cap], so a
   partition costs a bounded retransmission rate, not a storm), and the
   go-back-N window replays the lost tail after the heal. On a raw wire a
   partition simply loses the traffic, as a cut does. *)

let set_wire_up t ~wire up =
  if wire < 0 || wire >= Array.length t.up then invalid_arg "Net.set_wire_up: no such wire";
  if t.up.(wire) && not up then begin
    (* flush the line: frames and acks in the cable are lost with it *)
    (match t.rel.(wire) with
    | Some rw ->
      t.partition_dropped <- t.partition_dropped + line_length rw.r_data + Queue.length rw.r_acks;
      line_clear rw.r_data;
      Queue.clear rw.r_acks
    | None -> ());
    let line = t.lines.(wire) in
    let rec drain () =
      match Fifo.pop line with
      | Some _ ->
        t.partition_dropped <- t.partition_dropped + 1;
        drain ()
      | None -> ()
    in
    drain ()
  end;
  t.up.(wire) <- up

let wire_up t ~wire =
  if wire < 0 || wire >= Array.length t.up then invalid_arg "Net.wire_up: no such wire";
  t.up.(wire)

(* Fault injection on a physical line: rewrite (Some) or destroy (None)
   every message currently in flight on one wire. Draining and refilling
   the FIFO preserves arrival order; destroyed messages count as drops —
   to the boxes at either end, a tampered line is indistinguishable from a
   lossy or noisy one. On a reliable wire the tampering hits the frames in
   transit; a destroyed frame is recovered by retransmission, a rewritten
   payload is delivered as-is (the protocol recovers loss, not forgery). *)
let tamper t ~wire f =
  if wire < 0 || wire >= Array.length t.lines then invalid_arg "Net.tamper: no such wire";
  let affected = ref 0 in
  (match t.rel.(wire) with
  | Some rw ->
    let frames = line_frames rw.r_data in
    line_clear rw.r_data;
    List.iter
      (fun fr ->
        match f fr.payload with
        | Some msg' ->
          if not (String.equal msg' fr.payload) then incr affected;
          line_append rw.r_data { fr with payload = msg' }
        | None ->
          incr affected;
          t.dropped <- t.dropped + 1)
      frames
  | None ->
    let line = t.lines.(wire) in
    let rec drain acc =
      match Fifo.pop line with
      | Some msg -> drain (msg :: acc)
      | None -> List.rev acc
    in
    List.iter
      (fun msg ->
        match f msg with
        | Some msg' ->
          if not (String.equal msg' msg) then incr affected;
          ignore (Fifo.push line msg')
        | None ->
          incr affected;
          t.dropped <- t.dropped + 1)
      (drain []));
  !affected
