module Colour = Sep_model.Colour
module Component = Sep_model.Component
module Topology = Sep_model.Topology
module Fifo = Sep_util.Fifo

(* Kernel-side descriptor of one hosted regime. *)
type regime = {
  colour : Colour.t;
  inst : Component.instance;
  pending_external : Component.message Fifo.t;  (* inputs fielded, not yet delivered *)
  in_chans : int list;  (* channel ids this regime receives on, ascending *)
  mutable obs : Component.obs list;  (* reversed *)
  mutable outs : Component.message list;  (* reversed *)
}

type bug =
  | Misdeliver
  | Duplicate_delivery
  | Drop_alternate

let pp_bug ppf b =
  Fmt.string ppf
    (match b with
    | Misdeliver -> "misdeliver"
    | Duplicate_delivery -> "duplicate-delivery"
    | Drop_alternate -> "drop-alternate")

let all_bugs = [ Misdeliver; Duplicate_delivery; Drop_alternate ]

type chan = {
  dst : int;  (* regime index *)
  cut : bool;
  buffer : Component.message Fifo.t;  (* kernel-owned *)
}

type t = {
  regimes : regime array;
  chans : chan array;  (* indexed by wire id *)
  src_of : int array;  (* wire id -> sending regime index *)
  bug_list : bug list;
  mutable current : int;  (* regime holding the processor *)
  mutable switches : int;
  mutable copies : int;
  mutable sends_seen : int;  (* for Drop_alternate *)
  mutable dropped : int;
}

let external_queue_capacity = 1024

let has_bug t b = List.mem b t.bug_list

let build ?(bugs = []) topo =
  (match Topology.validate topo with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Regime_kernel.build: " ^ msg));
  let colours = Array.of_list (Topology.colours topo) in
  let index_of c =
    let rec find i = if Colour.equal colours.(i) c then i else find (i + 1) in
    find 0
  in
  let nregs = List.length topo.Topology.parts in
  let chan w =
    let dst = index_of w.Topology.dst in
    let dst = if List.mem Misdeliver bugs then (dst + 1) mod nregs else dst in
    { dst; cut = w.Topology.cut; buffer = Fifo.create ~capacity:w.Topology.capacity }
  in
  let chans = Array.of_list (List.map chan topo.Topology.wires) in
  (* Regimes receive on the channels the kernel routes to them — which is
     the topology's word unless a routing bug says otherwise. *)
  let regime r_idx (colour, comp) =
    let in_chans = ref [] in
    Array.iteri (fun id ch -> if ch.dst = r_idx then in_chans := id :: !in_chans) chans;
    {
      colour;
      inst = Component.instantiate comp;
      pending_external = Fifo.create ~capacity:external_queue_capacity;
      in_chans = List.sort Int.compare !in_chans;
      obs = [];
      outs = [];
    }
  in
  {
    regimes = Array.of_list (List.mapi regime topo.Topology.parts);
    chans;
    src_of = Array.of_list (List.map (fun w -> index_of w.Topology.src) topo.Topology.wires);
    bug_list = bugs;
    current = 0;
    switches = 0;
    copies = 0;
    sends_seen = 0;
    dropped = 0;
  }

(* The kernel's channel service: copy the message into the kernel buffer
   owned by the channel. The kernel neither looks at the payload nor knows
   what the regimes mean by it. *)
let copy_in t sender chan_id msg =
  if chan_id < 0 || chan_id >= Array.length t.chans || t.src_of.(chan_id) <> sender then
    t.dropped <- t.dropped + 1
  else begin
    t.sends_seen <- t.sends_seen + 1;
    let ch = t.chans.(chan_id) in
    if ch.cut then () (* the far end was aliased away: accept and discard *)
    else if has_bug t Drop_alternate && t.sends_seen mod 2 = 0 then ()
    else if Fifo.push ch.buffer msg then t.copies <- t.copies + 1
    else t.dropped <- t.dropped + 1
  end

let handle_actions t r_idx actions =
  let r = t.regimes.(r_idx) in
  let handle = function
    | Component.Send (chan_id, msg) as act ->
      r.obs <- Component.Did act :: r.obs;
      copy_in t r_idx chan_id msg
    | Component.Output msg as act ->
      r.obs <- Component.Did act :: r.obs;
      r.outs <- msg :: r.outs
  in
  List.iter handle actions

let deliver t r_idx ev =
  let r = t.regimes.(r_idx) in
  r.obs <- Component.Saw ev :: r.obs;
  handle_actions t r_idx (Component.feed r.inst ev)

(* Interrupt fielding: enqueue external arrivals on the owning regime's
   pending queue; they are handed over at the regime's next quantum. *)
let field_externals t externals =
  let field (c, msg) =
    Array.iter
      (fun r ->
        if Colour.equal r.colour c then
          if not (Fifo.push r.pending_external msg) then t.dropped <- t.dropped + 1)
      t.regimes
  in
  List.iter field externals

let quantum t r_idx deliverable =
  if t.current <> r_idx then begin
    (* context switch: the processor changes hands *)
    t.current <- r_idx;
    t.switches <- t.switches + 1
  end;
  let r = t.regimes.(r_idx) in
  let rec drain_externals () =
    match Fifo.pop r.pending_external with
    | Some msg ->
      deliver t r_idx (Component.External msg);
      drain_externals ()
    | None -> ()
  in
  drain_externals ();
  let from_chan chan_id =
    if deliverable.(chan_id) > 0 then begin
      deliverable.(chan_id) <- 0;
      match Fifo.pop t.chans.(chan_id).buffer with
      | Some msg ->
        t.copies <- t.copies + 1;
        deliver t r_idx (Component.Recv (chan_id, msg));
        if has_bug t Duplicate_delivery then deliver t r_idx (Component.Recv (chan_id, msg))
      | None -> ()
    end
  in
  List.iter from_chan r.in_chans

let step t ~externals =
  field_externals t externals;
  (* Messages already buffered when the rotation starts are deliverable. *)
  let deliverable = Array.map (fun ch -> min 1 (Fifo.length ch.buffer)) t.chans in
  for r_idx = 0 to Array.length t.regimes - 1 do
    quantum t r_idx deliverable
  done

let run t ~steps ~externals =
  for n = 0 to steps - 1 do
    step t ~externals:(externals n)
  done

let find t c =
  let rec search i =
    if i >= Array.length t.regimes then raise Not_found
    else if Colour.equal t.regimes.(i).colour c then t.regimes.(i)
    else search (i + 1)
  in
  search 0

let trace t c = List.rev (find t c).obs
let outputs t c = List.rev (find t c).outs

let context_switches t = t.switches
let messages_copied t = t.copies
let buffered t = Array.fold_left (fun acc ch -> acc + Fifo.length ch.buffer) 0 t.chans
let drops t = t.dropped

(* -- State observation, for the refinement checker ------------------------- *)

let chan_count t = Array.length t.chans
let chan_buffer t id = Fifo.to_list t.chans.(id).buffer
let current_colour t = t.regimes.(t.current).colour
