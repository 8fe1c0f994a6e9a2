module Word = Sep_hw.Word
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine

type status =
  | Running
  | Waiting
  | Parked

type chan_end = { ce_chan : int; ce_capacity : int; ce_contents : int list }

type device_view = {
  dv_kind : Machine.device_kind;
  dv_data : int;
  dv_status : int;
  dv_irq : bool;
}

type t = {
  mem : int array;
  regs : int array;
  flag_z : bool;
  flag_n : bool;
  status : status;
  devices : device_view array;
  sends : chan_end array;
  recvs : chan_end array;
}

(* Field by field, with no polymorphic compare: the monitor compares a
   few dozen views per deep check. Each test takes physical equality
   first, which values interned or shared by the checker often have. *)
let rec ints_from (a : int array) (b : int array) i =
  i = Array.length a || (Array.unsafe_get a i = Array.unsafe_get b i && ints_from a b (i + 1))

let same_ints a b = a == b || (Array.length a = Array.length b && ints_from a b 0)

let same_array same a b =
  let rec from i = i = Array.length a || (same a.(i) b.(i) && from (i + 1)) in
  a == b || (Array.length a = Array.length b && from 0)

let same_kind (x : Machine.device_kind) y =
  x == y
  ||
  match (x, y) with
  | Machine.Rx, Machine.Rx | Machine.Tx, Machine.Tx -> true
  | Machine.Xform Machine.Identity, Machine.Xform Machine.Identity -> true
  | Machine.Xform (Machine.Xor_key k), Machine.Xform (Machine.Xor_key k')
  | Machine.Xform (Machine.Add_key k), Machine.Xform (Machine.Add_key k') -> k = k'
  | (Machine.Rx | Machine.Tx | Machine.Xform _), _ -> false

let same_device d e =
  d == e
  || d.dv_data = e.dv_data && d.dv_status = e.dv_status && Bool.equal d.dv_irq e.dv_irq
     && same_kind d.dv_kind e.dv_kind

let rec same_contents (a : int list) b =
  a == b
  ||
  match (a, b) with
  | x :: a, y :: b -> x = y && same_contents a b
  | [], _ | _, [] -> false

let same_end e f =
  e == f
  || e.ce_chan = f.ce_chan && e.ce_capacity = f.ce_capacity
     && same_contents e.ce_contents f.ce_contents

let equal (a : t) (b : t) =
  a == b
  || Bool.equal a.flag_z b.flag_z && Bool.equal a.flag_n b.flag_n && a.status == b.status
     && same_ints a.regs b.regs && same_ints a.mem b.mem
     && same_array same_device a.devices b.devices
     && same_array same_end a.sends b.sends && same_array same_end a.recvs b.recvs

module Mix = Sep_util.Mix

(* One word per device view: kind tag, IRQ line, 16-bit status and data. *)
let device_word d =
  let kind = match d.dv_kind with Machine.Rx -> 0 | Machine.Tx -> 1 | Machine.Xform _ -> 2 in
  kind lor (Bool.to_int d.dv_irq lsl 2) lor (d.dv_status lsl 3) lor (d.dv_data lsl 19)

let rec mix_contents h n = function
  | [] -> Mix.int h n
  | w :: rest -> mix_contents (Mix.int h w) (n + 1) rest

let mix_ends h ends =
  let h = Array.fold_left
      (fun h e -> mix_contents (Mix.int (Mix.int h e.ce_chan) e.ce_capacity) 0 e.ce_contents)
      h ends
  in
  Mix.int h (Array.length ends)

(* Mixes every field [equal] compares, word by word; see [Sep_util.Mix]. *)
let hash (t : t) =
  let h = Mix.ints (Mix.ints Mix.seed t.mem) t.regs in
  let status = match t.status with Running -> 0 | Waiting -> 4 | Parked -> 8 in
  let h = Mix.int h (Bool.to_int t.flag_z lor (Bool.to_int t.flag_n lsl 1) lor status) in
  let h = Array.fold_left (fun h d -> Mix.int h (device_word d)) h t.devices in
  Mix.finish (mix_ends (mix_ends (Mix.int h (Array.length t.devices)) t.sends) t.recvs)

let pp_status ppf = function
  | Running -> Fmt.string ppf "running"
  | Waiting -> Fmt.string ppf "waiting"
  | Parked -> Fmt.string ppf "parked"

let pp ppf t =
  let pp_end ppf e = Fmt.pf ppf "ch%d:%a" e.ce_chan Fmt.(Dump.list int) e.ce_contents in
  Fmt.pf ppf "@[<v>abs: %a regs=%a z=%b n=%b@ mem=%a@ devs=%a@ send=%a recv=%a@]" pp_status
    t.status
    Fmt.(Dump.array int)
    t.regs t.flag_z t.flag_n
    Fmt.(Dump.array int)
    t.mem
    Fmt.(Dump.array (fun ppf d -> Fmt.pf ppf "(%x,%x,%b)" d.dv_data d.dv_status d.dv_irq))
    t.devices
    Fmt.(Dump.array pp_end)
    t.sends
    Fmt.(Dump.array pp_end)
    t.recvs

(* -- Specification semantics --------------------------------------------- *)

let clone t =
  {
    t with
    mem = Array.copy t.mem;
    regs = Array.copy t.regs;
    devices = Array.copy t.devices;
    sends = Array.copy t.sends;
    recvs = Array.copy t.recvs;
  }

let set_zn t w =
  let t = { t with flag_z = Word.is_zero w; flag_n = Word.is_negative w } in
  t

(* Private-machine read of a virtual address: partition memory below the
   device space, device slots above. Returns [None] on a violation. *)
let load t vaddr =
  if vaddr < 0 then None
  else if vaddr < Machine.device_space then begin
    if vaddr < Array.length t.mem then Some t.mem.(vaddr) else None
  end
  else begin
    let off = vaddr - Machine.device_space in
    let slot = off lsr 1 and is_status = off land 1 = 1 in
    if slot >= Array.length t.devices then None
    else begin
      let d = t.devices.(slot) in
      if is_status then Some d.dv_status
      else begin
        match d.dv_kind with
        | Machine.Rx ->
          (* reading consumes the buffered word *)
          t.devices.(slot) <- { d with dv_status = 0 };
          Some d.dv_data
        | Machine.Tx | Machine.Xform _ -> Some d.dv_data
      end
    end
  end

let apply_transform tr w =
  match tr with
  | Machine.Identity -> w
  | Machine.Xor_key k -> Word.logxor w k
  | Machine.Add_key k -> Word.add w k

let store t vaddr w =
  if vaddr < 0 then false
  else if vaddr < Machine.device_space then begin
    if vaddr < Array.length t.mem then begin
      t.mem.(vaddr) <- Word.of_int w;
      true
    end
    else false
  end
  else begin
    let off = vaddr - Machine.device_space in
    let slot = off lsr 1 and is_status = off land 1 = 1 in
    if slot >= Array.length t.devices then false
    else begin
      let d = t.devices.(slot) in
      (if is_status then t.devices.(slot) <- { d with dv_status = Word.of_int w }
       else begin
         match d.dv_kind with
         | Machine.Tx -> t.devices.(slot) <- { d with dv_data = Word.of_int w; dv_status = 1 }
         | Machine.Xform tr ->
           t.devices.(slot) <- { d with dv_data = apply_transform tr (Word.of_int w); dv_status = 1 }
         | Machine.Rx -> t.devices.(slot) <- { d with dv_data = Word.of_int w }
       end);
      true
    end
  end

let find_end ends chan =
  let rec search i =
    if i >= Array.length ends then None
    else if ends.(i).ce_chan = chan then Some i
    else search (i + 1)
  in
  search 0

let park t = { t with status = Parked }

let trap t n =
  (* PC has already been bumped past the trap instruction. *)
  match n with
  | 0 -> t (* SWAP: yielding a private processor is invisible *)
  | 1 -> begin
    let chan = t.regs.(0) in
    match find_end t.sends chan with
    | None ->
      t.regs.(2) <- 2;
      t
    | Some i ->
      let e = t.sends.(i) in
      if List.length e.ce_contents >= e.ce_capacity then begin
        t.regs.(2) <- 0;
        t
      end
      else begin
        t.sends.(i) <- { e with ce_contents = e.ce_contents @ [ t.regs.(1) ] };
        t.regs.(2) <- 1;
        t
      end
  end
  | 2 -> begin
    let chan = t.regs.(0) in
    match find_end t.recvs chan with
    | None ->
      t.regs.(2) <- 2;
      t
    | Some i -> begin
      let e = t.recvs.(i) in
      match e.ce_contents with
      | [] ->
        t.regs.(2) <- 0;
        t
      | w :: rest ->
        t.recvs.(i) <- { e with ce_contents = rest };
        t.regs.(1) <- w;
        t.regs.(2) <- 1;
        t
    end
  end
  | _ -> park t

let step t0 =
  match t0.status with
  | Waiting | Parked -> t0
  | Running -> begin
    let t = clone t0 in
    let pc = t.regs.(Isa.pc_reg) in
    match load t pc with
    | None -> park t
    | Some insn_word -> begin
      match Isa.decode insn_word with
      | None -> park t
      | Some insn ->
        let bump () = t.regs.(Isa.pc_reg) <- Word.add pc 1 in
        let alu dst v =
          let t = set_zn t v in
          t.regs.(dst) <- v;
          bump ();
          t
        in
        (match insn with
        | Isa.Nop ->
          bump ();
          t
        | Isa.Halt ->
          bump ();
          (* WAIT falls through when an own Rx device holds unread data
             (its interrupt line is still asserted). *)
          let asserted d =
            match d.dv_kind with
            | Machine.Rx -> d.dv_status = 1
            | Machine.Tx | Machine.Xform _ -> false
          in
          if Array.exists asserted t.devices then t else { t with status = Waiting }
        | Isa.Rti ->
          (* privileged: a user-mode Rti is an illegal instruction *)
          park t
        | Isa.Trap n ->
          bump ();
          trap t n
        | Isa.Loadi (r, imm) -> alu r (Word.of_int imm)
        | Isa.Load (r, b, off) -> begin
          let vaddr = Word.add t.regs.(b) (Word.of_int off) in
          match load t vaddr with
          | None -> park t
          | Some v -> alu r v
        end
        | Isa.Store (r, b, off) ->
          let vaddr = Word.add t.regs.(b) (Word.of_int off) in
          if store t vaddr t.regs.(r) then begin
            bump ();
            t
          end
          else park t
        | Isa.Mov (d, s) -> alu d t.regs.(s)
        | Isa.Add (d, s) -> alu d (Word.add t.regs.(d) t.regs.(s))
        | Isa.Sub (d, s) -> alu d (Word.sub t.regs.(d) t.regs.(s))
        | Isa.And_ (d, s) -> alu d (Word.logand t.regs.(d) t.regs.(s))
        | Isa.Or_ (d, s) -> alu d (Word.logor t.regs.(d) t.regs.(s))
        | Isa.Xor (d, s) -> alu d (Word.logxor t.regs.(d) t.regs.(s))
        | Isa.Cmp (d, s) ->
          let t = set_zn t (Word.sub t.regs.(d) t.regs.(s)) in
          bump ();
          t
        | Isa.Shl (r, a) -> alu r (Word.shift_left t.regs.(r) a)
        | Isa.Shr (r, a) -> alu r (Word.shift_right t.regs.(r) a)
        | Isa.Beq off ->
          if t.flag_z then t.regs.(Isa.pc_reg) <- Word.of_int (pc + 1 + off) else bump ();
          t
        | Isa.Bne off ->
          if not t.flag_z then t.regs.(Isa.pc_reg) <- Word.of_int (pc + 1 + off) else bump ();
          t
        | Isa.Br off ->
          t.regs.(Isa.pc_reg) <- Word.of_int (pc + 1 + off);
          t)
    end
  end

let drain_tx t0 =
  let t = clone t0 in
  Array.iteri
    (fun i d ->
      match d.dv_kind with
      | Machine.Tx when d.dv_status = 1 -> t.devices.(i) <- { d with dv_status = 0 }
      | Machine.Tx | Machine.Rx | Machine.Xform _ -> ())
    t.devices;
  t

let deliver_input t0 ~slot w =
  let t = clone t0 in
  let d = t.devices.(slot) in
  (match d.dv_kind with
  | Machine.Rx -> ()
  | Machine.Tx | Machine.Xform _ -> invalid_arg "Abstract_regime.deliver_input: not Rx");
  (* The IRQ is raised and immediately fielded, so the line reads low and a
     waiting machine resumes. *)
  t.devices.(slot) <- { d with dv_data = Word.of_int w; dv_status = 1 };
  match t.status with
  | Waiting -> { t with status = Running }
  | Running | Parked -> t

let input_stage t arrivals =
  List.fold_left (fun t (slot, w) -> deliver_input t ~slot w) (drain_tx t) arrivals
