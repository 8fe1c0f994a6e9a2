type transform =
  | Identity
  | Xor_key of Word.t
  | Add_key of Word.t

type device_kind =
  | Rx
  | Tx
  | Xform of transform

type fault =
  | Illegal_instruction of Word.t
  | Mem_violation of int
  | Device_violation of int

type step_result =
  | Stepped
  | Trapped of int
  | Waiting
  | Returned
  | Faulted of fault

type mode =
  | User
  | Kernel

type device = {
  kind : device_kind;
  mutable data : Word.t;
  mutable status : Word.t;
  mutable irq : bool;
}

type mmu_state = { mutable base : int; mutable limit : int; mutable dev_slots : int array }

type t = {
  mem : int array;
  regs : int array;
  mutable flag_z : bool;
  mutable flag_n : bool;
  mm : mmu_state;
  devices : device array;
  mutable instructions : int;
  mutable cpu_mode : mode;
  frame : int array;  (* 8 registers, flags, cause *)
  mmu_shadow : int array;  (* base, limit, slot count, 8 slots *)
}

let device_space = 0x8000
let frame_base = 0x7f00
let frame_words = 10
let mmu_base = 0x7f10
let mmu_words = 11

let cause_swap = 0
let cause_send = 1
let cause_recv = 2
let cause_bad_trap = 3
let cause_wait = 4
let cause_fault = 5
let cause_resched = 6

let create ~mem_words ~devices =
  assert (mem_words > 0 && mem_words <= device_space);
  let make_device kind = { kind; data = 0; status = 0; irq = false } in
  {
    mem = Array.make mem_words 0;
    regs = Array.make Isa.num_regs 0;
    flag_z = false;
    flag_n = false;
    mm = { base = 0; limit = 0; dev_slots = [||] };
    devices = Array.of_list (List.map make_device devices);
    instructions = 0;
    cpu_mode = User;
    frame = Array.make frame_words 0;
    mmu_shadow = Array.make mmu_words 0;
  }

let mem_size t = Array.length t.mem
let num_devices t = Array.length t.devices

let read_phys t a =
  if a < 0 || a >= Array.length t.mem then invalid_arg "Machine.read_phys";
  t.mem.(a)

let read_phys_slice t a n =
  if a < 0 || n < 0 || a + n > Array.length t.mem then invalid_arg "Machine.read_phys_slice";
  Array.sub t.mem a n

let write_phys t a w =
  if a < 0 || a >= Array.length t.mem then invalid_arg "Machine.write_phys";
  t.mem.(a) <- Word.of_int w

let get_reg t r = t.regs.(r)
let set_reg t r w = t.regs.(r) <- Word.of_int w

let get_flags t = (t.flag_z, t.flag_n)

let set_flags t (z, n) =
  t.flag_z <- z;
  t.flag_n <- n

let set_mmu t ~base ~limit ~dev_slots =
  assert (base >= 0 && limit >= 0 && base + limit <= Array.length t.mem);
  t.mm.base <- base;
  t.mm.limit <- limit;
  t.mm.dev_slots <- Array.copy dev_slots

let mmu t = (t.mm.base, t.mm.limit, Array.copy t.mm.dev_slots)

let device_kind t d = t.devices.(d).kind

let apply_transform tr w =
  match tr with
  | Identity -> w
  | Xor_key k -> Word.logxor w k
  | Add_key k -> Word.add w k

let device_input t d w =
  let dev = t.devices.(d) in
  (match dev.kind with
  | Rx -> ()
  | Tx | Xform _ -> invalid_arg "Machine.device_input: not an Rx device");
  dev.data <- Word.of_int w;
  dev.status <- 1;
  dev.irq <- true

let device_outputs t =
  let out = ref [] in
  Array.iteri
    (fun i dev ->
      match dev.kind with
      | Tx when dev.status = 1 ->
        out := (i, dev.data) :: !out;
        dev.status <- 0
      | Tx | Rx | Xform _ -> ())
    t.devices;
  List.rev !out

let device_regs t d =
  let dev = t.devices.(d) in
  (dev.data, dev.status)

let set_device_regs t d ~data ~status =
  let dev = t.devices.(d) in
  dev.data <- Word.of_int data;
  dev.status <- Word.of_int status

let pending_irqs t =
  let out = ref [] in
  Array.iteri (fun i dev -> if dev.irq then out := i :: !out) t.devices;
  List.rev !out

let irq_pending t d = t.devices.(d).irq

let field_irq t d = t.devices.(d).irq <- false

(* Assert a device's interrupt line without latching any data — a
   spurious or duplicated interrupt, as injected by fault campaigns. *)
let raise_irq t d = t.devices.(d).irq <- true

(* Virtual-address access through the MMU.

   Below [device_space]: base/limit relocation into the regime partition.
   At/above [device_space]: pairs of words address the regime's device
   slots — slot k's data register at [device_space + 2k], status at
   [device_space + 2k + 1]. *)

type translated =
  | Mem of int
  | Dev of int * bool  (* device id, [true] = status register *)
  | Frame of int  (* word offset into the trap frame *)
  | Mmuctl of int  (* word offset into the MMU control registers *)
  | Violation

let translate t vaddr =
  if vaddr < 0 then Violation
  else begin
    match t.cpu_mode with
    | User ->
      if vaddr < device_space then begin
        if vaddr < t.mm.limit then Mem (t.mm.base + vaddr) else Violation
      end
      else begin
        let off = vaddr - device_space in
        let slot = off lsr 1 and is_status = off land 1 = 1 in
        if slot < Array.length t.mm.dev_slots then Dev (t.mm.dev_slots.(slot), is_status)
        else Violation
      end
    | Kernel ->
      (* physical addressing plus the privileged register files *)
      if vaddr < Array.length t.mem then Mem vaddr
      else if vaddr >= frame_base && vaddr < frame_base + frame_words then
        Frame (vaddr - frame_base)
      else if vaddr >= mmu_base && vaddr < mmu_base + mmu_words then Mmuctl (vaddr - mmu_base)
      else Violation
  end

(* Re-program the live MMU from the shadow registers, clamping to the
   physical memory so kernel bugs cannot crash the simulator itself. *)
let apply_mmu_shadow t =
  let mem = Array.length t.mem in
  let base = min t.mmu_shadow.(0) mem in
  let limit = min t.mmu_shadow.(1) (mem - base) in
  let count = min t.mmu_shadow.(2) 8 in
  let slots =
    Array.init count (fun k ->
        let d = t.mmu_shadow.(3 + k) in
        if d < Array.length t.devices then d else 0)
  in
  t.mm.base <- base;
  t.mm.limit <- limit;
  t.mm.dev_slots <- slots

let dev_read t d ~status =
  let dev = t.devices.(d) in
  if status then dev.status
  else begin
    match dev.kind with
    | Rx ->
      (* Reading the data register consumes the buffered word. *)
      dev.status <- 0;
      dev.data
    | Tx | Xform _ -> dev.data
  end

let dev_write t d ~status w =
  let dev = t.devices.(d) in
  if status then dev.status <- w
  else begin
    match dev.kind with
    | Tx ->
      dev.data <- w;
      dev.status <- 1 (* pending transmission *)
    | Xform tr ->
      dev.data <- apply_transform tr w;
      dev.status <- 1 (* result ready *)
    | Rx -> dev.data <- w
  end

let load_user t vaddr =
  match translate t vaddr with
  | Mem a -> Some t.mem.(a)
  | Dev (d, status) -> Some (dev_read t d ~status)
  | Frame i -> Some t.frame.(i)
  | Mmuctl i -> Some t.mmu_shadow.(i)
  | Violation -> None

let store_user t vaddr w =
  match translate t vaddr with
  | Mem a ->
    t.mem.(a) <- Word.of_int w;
    true
  | Dev (d, status) ->
    dev_write t d ~status (Word.of_int w);
    true
  | Frame i ->
    t.frame.(i) <- Word.of_int w;
    true
  | Mmuctl i ->
    t.mmu_shadow.(i) <- Word.of_int w;
    apply_mmu_shadow t;
    true
  | Violation -> false

let set_zn t w =
  t.flag_z <- Word.is_zero w;
  t.flag_n <- Word.is_negative w

let step_user t =
  let pc = t.regs.(Isa.pc_reg) in
  match load_user t pc with
  | None -> Faulted (Mem_violation pc)
  | Some insn_word -> begin
    match Isa.decode insn_word with
    | None -> Faulted (Illegal_instruction insn_word)
    | Some insn ->
      t.instructions <- t.instructions + 1;
      let bump () = t.regs.(Isa.pc_reg) <- Word.add pc 1 in
      let alu dst v =
        set_zn t v;
        t.regs.(dst) <- v;
        bump ();
        Stepped
      in
      (match insn with
      | Isa.Nop ->
        bump ();
        Stepped
      | Isa.Halt ->
        bump ();
        Waiting
      | Isa.Rti ->
        if t.cpu_mode = Kernel then begin
          for i = 0 to Isa.num_regs - 1 do
            t.regs.(i) <- Word.of_int t.frame.(i)
          done;
          t.flag_z <- t.frame.(8) land 1 <> 0;
          t.flag_n <- t.frame.(8) land 2 <> 0;
          t.cpu_mode <- User;
          Returned
        end
        else Faulted (Illegal_instruction insn_word)
      | Isa.Trap n ->
        bump ();
        Trapped n
      | Isa.Loadi (r, imm) -> alu r (Word.of_int imm)
      | Isa.Load (r, b, off) -> begin
        let vaddr = Word.add t.regs.(b) (Word.of_int off) in
        match load_user t vaddr with
        | None ->
          if t.cpu_mode = User && vaddr >= device_space then Faulted (Device_violation vaddr)
          else Faulted (Mem_violation vaddr)
        | Some v -> alu r v
      end
      | Isa.Store (r, b, off) ->
        let vaddr = Word.add t.regs.(b) (Word.of_int off) in
        if store_user t vaddr t.regs.(r) then begin
          bump ();
          Stepped
        end
        else if t.cpu_mode = User && vaddr >= device_space then Faulted (Device_violation vaddr)
        else Faulted (Mem_violation vaddr)
      | Isa.Mov (d, s) -> alu d t.regs.(s)
      | Isa.Add (d, s) -> alu d (Word.add t.regs.(d) t.regs.(s))
      | Isa.Sub (d, s) -> alu d (Word.sub t.regs.(d) t.regs.(s))
      | Isa.And_ (d, s) -> alu d (Word.logand t.regs.(d) t.regs.(s))
      | Isa.Or_ (d, s) -> alu d (Word.logor t.regs.(d) t.regs.(s))
      | Isa.Xor (d, s) -> alu d (Word.logxor t.regs.(d) t.regs.(s))
      | Isa.Cmp (d, s) ->
        set_zn t (Word.sub t.regs.(d) t.regs.(s));
        bump ();
        Stepped
      | Isa.Shl (r, a) -> alu r (Word.shift_left t.regs.(r) a)
      | Isa.Shr (r, a) -> alu r (Word.shift_right t.regs.(r) a)
      | Isa.Beq off ->
        if t.flag_z then t.regs.(Isa.pc_reg) <- Word.of_int (pc + 1 + off) else bump ();
        Stepped
      | Isa.Bne off ->
        if not t.flag_z then t.regs.(Isa.pc_reg) <- Word.of_int (pc + 1 + off) else bump ();
        Stepped
      | Isa.Br off ->
        t.regs.(Isa.pc_reg) <- Word.of_int (pc + 1 + off);
        Stepped)
  end

let instruction_count t = t.instructions

let mode t = t.cpu_mode

let enter_kernel t ~cause ~vector =
  for i = 0 to Isa.num_regs - 1 do
    t.frame.(i) <- t.regs.(i)
  done;
  t.frame.(8) <- (if t.flag_z then 1 else 0) lor (if t.flag_n then 2 else 0);
  t.frame.(9) <- Word.of_int cause;
  t.cpu_mode <- Kernel;
  t.regs.(Isa.pc_reg) <- Word.of_int vector

let copy t =
  let copy_device d = { d with kind = d.kind } in
  {
    mem = Array.copy t.mem;
    regs = Array.copy t.regs;
    flag_z = t.flag_z;
    flag_n = t.flag_n;
    mm = { base = t.mm.base; limit = t.mm.limit; dev_slots = Array.copy t.mm.dev_slots };
    devices = Array.map copy_device t.devices;
    instructions = t.instructions;
    cpu_mode = t.cpu_mode;
    frame = Array.copy t.frame;
    mmu_shadow = Array.copy t.mmu_shadow;
  }

(* The instruction counter is bookkeeping, not machine state: two runs that
   reach the same machine configuration by different paths are the same
   state for verification purposes. *)
let equal a b =
  a.mem = b.mem && a.regs = b.regs && a.flag_z = b.flag_z && a.flag_n = b.flag_n
  && a.mm.base = b.mm.base && a.mm.limit = b.mm.limit && a.mm.dev_slots = b.mm.dev_slots
  && a.cpu_mode = b.cpu_mode && a.frame = b.frame && a.mmu_shadow = b.mmu_shadow
  && Array.for_all2
       (fun (x : device) (y : device) ->
         x.kind = y.kind && x.data = y.data && x.status = y.status && x.irq = y.irq)
       a.devices b.devices

(* One word per device: kind tag, IRQ line, 16-bit status and data. *)
let device_word d =
  let kind = match d.kind with Rx -> 0 | Tx -> 1 | Xform _ -> 2 in
  kind lor (Bool.to_int d.irq lsl 2) lor (d.status lsl 3) lor (d.data lsl 19)

(* Mixes every field [equal] compares, word by word; see [Sep_util.Mix]. *)
let hash t =
  let module Mix = Sep_util.Mix in
  let h = Mix.ints (Mix.ints Mix.seed t.mem) t.regs in
  let mode = match t.cpu_mode with User -> 0 | Kernel -> 4 in
  let h = Mix.int h (Bool.to_int t.flag_z lor (Bool.to_int t.flag_n lsl 1) lor mode) in
  let h = Mix.ints (Mix.int (Mix.int h t.mm.base) t.mm.limit) t.mm.dev_slots in
  let h = Mix.ints (Mix.ints h t.frame) t.mmu_shadow in
  Mix.finish (Array.fold_left (fun h d -> Mix.int h (device_word d)) h t.devices)

let pp ppf t =
  let digest = Array.fold_left (fun acc w -> (acc * 31) + w) 0 t.mem in
  Fmt.pf ppf "@[<v>%s regs=%a z=%b n=%b@ mmu=(base=%d limit=%d slots=%a)@ devs=%a@ mem#=%08x@]"
    (match t.cpu_mode with User -> "user" | Kernel -> "KERNEL")
    Fmt.(Dump.array int)
    t.regs t.flag_z t.flag_n t.mm.base t.mm.limit
    Fmt.(Dump.array int)
    t.mm.dev_slots
    Fmt.(Dump.array (fun ppf d -> Fmt.pf ppf "(%x,%x,%b)" d.data d.status d.irq))
    t.devices digest
