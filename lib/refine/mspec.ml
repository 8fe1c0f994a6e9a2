module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine
module Config = Sep_core.Config
module AR = Sep_core.Abstract_regime

type t = {
  cfg : Isa.stmt list Config.t;
  colours : Colour.t array;
  machines : AR.t array;
  (* global device id -> owning regime index / slot within the owner; the
     kernel allocates device ids regime-major, devices in list order *)
  dev_owner : int array;
  dev_slot : int array;
  dev_kinds : Machine.device_kind array;
  chans : Config.channel array;
  mutable cur : int;
  mutable countdown : int;  (* meaningful iff cfg.quantum = Some _ *)
  (* committed-word streams, reversed *)
  sent : int list array;
  consumed : int list array;
  emitted : int list array;  (* per regime *)
}

let init cfg =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Mspec.init: " ^ msg));
  let colours = Array.of_list (Config.colours cfg) in
  let machine (r : _ Config.regime) =
    let code = Isa.assemble r.Config.program in
    let mem =
      Array.init r.Config.part_size (fun i -> if i < Array.length code then code.(i) else 0)
    in
    let devices =
      Array.of_list
        (List.map
           (fun k -> { AR.dv_kind = k; dv_data = 0; dv_status = 0; dv_irq = false })
           r.Config.devices)
    in
    let ends pick =
      Array.of_list
        (List.filter_map
           (fun (ch : Config.channel) ->
             if Colour.equal (pick ch) r.Config.colour then
               Some { AR.ce_chan = ch.Config.chan_id; ce_capacity = ch.Config.capacity; ce_contents = [] }
             else None)
           cfg.Config.channels)
    in
    {
      AR.mem;
      regs = Array.make Isa.num_regs 0;
      flag_z = false;
      flag_n = false;
      status = AR.Running;
      devices;
      sends = ends (fun ch -> ch.Config.sender);
      recvs = ends (fun ch -> ch.Config.receiver);
    }
  in
  let owners = ref [] and slots = ref [] and kinds = ref [] in
  List.iteri
    (fun i (r : _ Config.regime) ->
      List.iteri
        (fun s k ->
          owners := i :: !owners;
          slots := s :: !slots;
          kinds := k :: !kinds)
        r.Config.devices)
    cfg.Config.regimes;
  let nchans = List.length cfg.Config.channels in
  {
    cfg;
    colours;
    machines = Array.of_list (List.map machine cfg.Config.regimes);
    dev_owner = Array.of_list (List.rev !owners);
    dev_slot = Array.of_list (List.rev !slots);
    dev_kinds = Array.of_list (List.rev !kinds);
    chans = Array.of_list cfg.Config.channels;
    cur = 0;
    countdown = (match cfg.Config.quantum with Some q -> q | None -> 0);
    sent = Array.make nchans [];
    consumed = Array.make nchans [];
    emitted = Array.make (Array.length colours) [];
  }

let regime_index t c =
  let rec find i = if Colour.equal t.colours.(i) c then i else find (i + 1) in
  find 0

let machine t c = t.machines.(regime_index t c)
let current_colour t = t.colours.(t.cur)
let colours t = Array.to_list t.colours

let sent_words t id = List.rev t.sent.(id)
let consumed_words t id = List.rev t.consumed.(id)
let emitted_words t c = List.rev t.emitted.(regime_index t c)

(* -- Scheduling: the round-robin hand-over the kernel implements ----------- *)

let reset_countdown t =
  match t.cfg.Config.quantum with
  | Some q -> t.countdown <- q
  | None -> ()

let next_running t from =
  let n = Array.length t.machines in
  let rec scan k =
    if k > n then None
    else begin
      let r = (from + k) mod n in
      if t.machines.(r).AR.status = AR.Running then Some r else scan (k + 1)
    end
  in
  scan 1

let swap_away t =
  match next_running t t.cur with
  | Some r when r <> t.cur ->
    t.cur <- r;
    reset_countdown t
  | Some _ | None -> ()

(* -- Observation and input stages ------------------------------------------ *)

let outputs t =
  let out = ref [] in
  Array.iteri
    (fun d kind ->
      match kind with
      | Machine.Tx ->
        let m = t.machines.(t.dev_owner.(d)) in
        let dv = m.AR.devices.(t.dev_slot.(d)) in
        if dv.AR.dv_status = 1 then out := (d, dv.AR.dv_data) :: !out
      | Machine.Rx | Machine.Xform _ -> ())
    t.dev_kinds;
    List.rev !out

let input_stage t arrivals =
  Array.iteri
    (fun i m ->
      let own =
        List.filter_map
          (fun (d, w) ->
            if
              d >= 0 && d < Array.length t.dev_owner && t.dev_owner.(d) = i
              && t.dev_kinds.(d) = Machine.Rx
            then Some (t.dev_slot.(d), w)
            else None)
          arrivals
      in
      t.machines.(i) <- AR.input_stage m own)
    t.machines;
  (* an arrival may have woken a waiting regime while the processor was
     stalled on a non-running one: hand it over *)
  if t.machines.(t.cur).AR.status <> AR.Running then begin
    match next_running t t.cur with
    | Some r ->
      t.cur <- r;
      reset_countdown t
    | None -> ()
  end

(* -- The operation stage --------------------------------------------------- *)

(* Side-effect-free replica of the abstract machine's fetch, for
   classifying the instruction just executed. *)
let peek m pc =
  if pc < 0 then None
  else if pc < Machine.device_space then
    if pc < Array.length m.AR.mem then Some m.AR.mem.(pc) else None
  else begin
    let off = pc - Machine.device_space in
    let slot = off lsr 1 and is_status = off land 1 = 1 in
    if slot >= Array.length m.AR.devices then None
    else begin
      let d = m.AR.devices.(slot) in
      Some (if is_status then d.AR.dv_status else d.AR.dv_data)
    end
  end

let find_chan t id = if id >= 0 && id < Array.length t.chans then Some t.chans.(id) else None

let update_end ends chan f =
  Array.map (fun e -> if e.AR.ce_chan = chan then f e else e) ends

(* A successful SEND on an uncut channel is a kernel copy: the word the
   sender appended to its end appears at the receiver's end too (the two
   ends of an uncut channel alias one buffer). A cut channel's far end was
   aliased away, so nothing propagates. *)
let sync_send t ch_id w =
  t.sent.(ch_id) <- w :: t.sent.(ch_id);
  match find_chan t ch_id with
  | Some ch when not ch.Config.cut ->
    let r = regime_index t ch.Config.receiver in
    let m = t.machines.(r) in
    t.machines.(r) <-
      {
        m with
        AR.recvs =
          update_end m.AR.recvs ch_id (fun e ->
              { e with AR.ce_contents = e.AR.ce_contents @ [ w ] });
      }
  | Some _ | None -> ()

let sync_recv t ch_id w =
  t.consumed.(ch_id) <- w :: t.consumed.(ch_id);
  match find_chan t ch_id with
  | Some ch when not ch.Config.cut ->
    let s = regime_index t ch.Config.sender in
    let m = t.machines.(s) in
    t.machines.(s) <-
      {
        m with
        AR.sends =
          update_end m.AR.sends ch_id (fun e ->
              match e.AR.ce_contents with
              | [] -> e
              | _ :: rest -> { e with AR.ce_contents = rest });
      }
  | Some _ | None -> ()

let charge_quantum t =
  match t.cfg.Config.quantum with
  | None -> ()
  | Some q ->
    let left = t.countdown - 1 in
    if left <= 0 then begin
      t.countdown <- q;
      swap_away t
    end
    else t.countdown <- left

let exec t =
  let m = t.machines.(t.cur) in
  if m.AR.status <> AR.Running then () (* the processor stalls *)
  else begin
    let pc = m.AR.regs.(Isa.pc_reg) in
    let insn = Option.bind (peek m pc) Isa.decode in
    let m' = AR.step m in
    t.machines.(t.cur) <- m';
    match m'.AR.status with
    | AR.Parked -> swap_away t (* fault, illegal instruction or bad trap *)
    | AR.Waiting -> swap_away t
    | AR.Running -> begin
      match insn with
      | Some (Isa.Trap 0) -> swap_away t
      | Some (Isa.Trap 1) ->
        if m'.AR.regs.(2) = 1 then sync_send t m'.AR.regs.(0) m'.AR.regs.(1)
      | Some (Isa.Trap 2) ->
        if m'.AR.regs.(2) = 1 then sync_recv t m'.AR.regs.(0) m'.AR.regs.(1)
      | Some Isa.Halt -> () (* WAIT fell through on an asserted line: no charge *)
      | _ -> charge_quantum t
    end
  end

let step t arrivals =
  let observed = outputs t in
  List.iter
    (fun (d, w) ->
      let o = t.dev_owner.(d) in
      t.emitted.(o) <- w :: t.emitted.(o))
    observed;
  input_stage t arrivals;
  exec t;
  observed
