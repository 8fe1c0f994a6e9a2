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

(* The devices the last [step_user] (or [store_user]) touched: the first
   touch of each device, with its (data, status) before that touch. One
   instruction touches at most two devices, one on the fetch and one on a
   load or store. *)
type touches = {
  mutable count : int;
  mutable dev0 : int;
  mutable data0 : int;
  mutable status0 : int;
  mutable dev1 : int;
  mutable data1 : int;
  mutable status1 : int;
}

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
  touched : touches;  (* bookkeeping, like [instructions]: not state *)
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

let no_touches () = { count = 0; dev0 = 0; data0 = 0; status0 = 0; dev1 = 0; data1 = 0; status1 = 0 }

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
    touched = no_touches ();
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

(* The live slot array is private to its machine ([create], [copy] and
   [set_mmu] never share it), so slots of an unchanged count are
   rewritten in place. *)
let set_mmu t ~base ~limit ~dev_slots =
  assert (base >= 0 && limit >= 0 && base + limit <= Array.length t.mem);
  t.mm.base <- base;
  t.mm.limit <- limit;
  let n = Array.length dev_slots in
  if Array.length t.mm.dev_slots = n then Array.blit dev_slots 0 t.mm.dev_slots 0 n
  else t.mm.dev_slots <- Array.copy dev_slots

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

let device_data t d = t.devices.(d).data
let device_status t d = t.devices.(d).status

let device_regs t d =
  let dev = t.devices.(d) in
  (dev.data, dev.status)

let set_device_regs t d ~data ~status =
  let dev = t.devices.(d) in
  dev.data <- Word.of_int data;
  dev.status <- Word.of_int status

let complete_transmissions t =
  for d = 0 to Array.length t.devices - 1 do
    let dev = t.devices.(d) in
    match dev.kind with
    | Tx when dev.status = 1 -> dev.status <- 0
    | Tx | Rx | Xform _ -> ()
  done

let irq_pending t d = t.devices.(d).irq

let field_irq t d = t.devices.(d).irq <- false

(* Assert a device's interrupt line without latching any data — a
   spurious or duplicated interrupt, as injected by fault campaigns. *)
let raise_irq t d = t.devices.(d).irq <- true

(* -- The device-touch record ------------------------------------------------ *)

(* Keep device [d]'s registers as they were before its first touch in this
   instruction; a later touch of the same device changes nothing here. *)
let touch t d =
  let tc = t.touched and dev = t.devices.(d) in
  if tc.count = 0 then begin
    tc.dev0 <- d;
    tc.data0 <- dev.data;
    tc.status0 <- dev.status;
    tc.count <- 1
  end
  else if tc.count = 1 && tc.dev0 <> d then begin
    tc.dev1 <- d;
    tc.data1 <- dev.data;
    tc.status1 <- dev.status;
    tc.count <- 2
  end

let rec mem_int (a : int array) x i = i < Array.length a && (a.(i) = x || mem_int a x (i + 1))

(* Whether device [d], one of [ds], no longer holds (data, status). *)
let differs t ds d data status =
  let dev = t.devices.(d) in
  (dev.data <> data || dev.status <> status) && mem_int ds d 0

let devices_changed t ds =
  let tc = t.touched in
  (tc.count >= 1 && differs t ds tc.dev0 tc.data0 tc.status0)
  || (tc.count = 2 && differs t ds tc.dev1 tc.data1 tc.status1)

(* Virtual-address access through the MMU.

   Below [device_space]: base/limit relocation into the regime partition.
   At/above [device_space]: pairs of words address the regime's device
   slots — slot k's data register at [device_space + 2k], status at
   [device_space + 2k + 1].

   [load] and [store] resolve an address straight to the memory word,
   device register, trap-frame word or MMU control word it names. Words
   are 16-bit, so [load] answers a violation with [-1]. *)

let violation = -1

(* Re-program the live MMU from the shadow registers, clamping to the
   physical memory so kernel bugs cannot crash the simulator itself. A slot
   id past the last device names device 0; on a machine without devices
   no slot is granted at all. *)
let apply_mmu_shadow t =
  let mem = Array.length t.mem and ndevs = Array.length t.devices in
  let base = min t.mmu_shadow.(0) mem in
  let limit = min t.mmu_shadow.(1) (mem - base) in
  let count = if ndevs = 0 then 0 else min t.mmu_shadow.(2) 8 in
  if Array.length t.mm.dev_slots <> count then t.mm.dev_slots <- Array.make count 0;
  for k = 0 to count - 1 do
    let d = t.mmu_shadow.(3 + k) in
    t.mm.dev_slots.(k) <- (if d < ndevs then d else 0)
  done;
  t.mm.base <- base;
  t.mm.limit <- limit

let dev_read t d ~status =
  touch t d;
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
  touch t d;
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

let load t vaddr =
  if vaddr < 0 then violation
  else begin
    match t.cpu_mode with
    | User ->
      if vaddr < device_space then begin
        if vaddr < t.mm.limit then t.mem.(t.mm.base + vaddr) else violation
      end
      else begin
        let off = vaddr - device_space in
        let slot = off lsr 1 in
        if slot < Array.length t.mm.dev_slots then
          dev_read t t.mm.dev_slots.(slot) ~status:(off land 1 = 1)
        else violation
      end
    | Kernel ->
      (* physical addressing plus the privileged register files *)
      if vaddr < Array.length t.mem then t.mem.(vaddr)
      else if vaddr >= frame_base && vaddr < frame_base + frame_words then
        t.frame.(vaddr - frame_base)
      else if vaddr >= mmu_base && vaddr < mmu_base + mmu_words then t.mmu_shadow.(vaddr - mmu_base)
      else violation
  end

let store t vaddr w =
  if vaddr < 0 then false
  else begin
    match t.cpu_mode with
    | User ->
      if vaddr < device_space then begin
        if vaddr < t.mm.limit then begin
          t.mem.(t.mm.base + vaddr) <- Word.of_int w;
          true
        end
        else false
      end
      else begin
        let off = vaddr - device_space in
        let slot = off lsr 1 in
        if slot < Array.length t.mm.dev_slots then begin
          dev_write t t.mm.dev_slots.(slot) ~status:(off land 1 = 1) (Word.of_int w);
          true
        end
        else false
      end
    | Kernel ->
      if vaddr < Array.length t.mem then begin
        t.mem.(vaddr) <- Word.of_int w;
        true
      end
      else if vaddr >= frame_base && vaddr < frame_base + frame_words then begin
        t.frame.(vaddr - frame_base) <- Word.of_int w;
        true
      end
      else if vaddr >= mmu_base && vaddr < mmu_base + mmu_words then begin
        t.mmu_shadow.(vaddr - mmu_base) <- Word.of_int w;
        apply_mmu_shadow t;
        true
      end
      else false
  end

let store_user t vaddr w =
  t.touched.count <- 0;
  store t vaddr w

let set_zn t w =
  t.flag_z <- Word.is_zero w;
  t.flag_n <- Word.is_negative w

let bump t pc = t.regs.(Isa.pc_reg) <- Word.add pc 1

let alu t pc dst v =
  set_zn t v;
  t.regs.(dst) <- v;
  bump t pc;
  Stepped

let access_fault t vaddr =
  if t.cpu_mode = User && vaddr >= device_space then Faulted (Device_violation vaddr)
  else Faulted (Mem_violation vaddr)

let step_user t =
  t.touched.count <- 0;
  let pc = t.regs.(Isa.pc_reg) in
  let insn_word = load t pc in
  if insn_word = violation then Faulted (Mem_violation pc)
  else begin
    match Isa.decode insn_word with
    | None -> Faulted (Illegal_instruction insn_word)
    | Some insn ->
      t.instructions <- t.instructions + 1;
      (match insn with
      | Isa.Nop ->
        bump t pc;
        Stepped
      | Isa.Halt ->
        bump t pc;
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
        bump t pc;
        Trapped n
      | Isa.Loadi (r, imm) -> alu t pc r (Word.of_int imm)
      | Isa.Load (r, b, off) ->
        let vaddr = Word.add t.regs.(b) (Word.of_int off) in
        let v = load t vaddr in
        if v = violation then access_fault t vaddr else alu t pc r v
      | Isa.Store (r, b, off) ->
        let vaddr = Word.add t.regs.(b) (Word.of_int off) in
        if store t vaddr t.regs.(r) then begin
          bump t pc;
          Stepped
        end
        else access_fault t vaddr
      | Isa.Mov (d, s) -> alu t pc d t.regs.(s)
      | Isa.Add (d, s) -> alu t pc d (Word.add t.regs.(d) t.regs.(s))
      | Isa.Sub (d, s) -> alu t pc d (Word.sub t.regs.(d) t.regs.(s))
      | Isa.And_ (d, s) -> alu t pc d (Word.logand t.regs.(d) t.regs.(s))
      | Isa.Or_ (d, s) -> alu t pc d (Word.logor t.regs.(d) t.regs.(s))
      | Isa.Xor (d, s) -> alu t pc d (Word.logxor t.regs.(d) t.regs.(s))
      | Isa.Cmp (d, s) ->
        set_zn t (Word.sub t.regs.(d) t.regs.(s));
        bump t pc;
        Stepped
      | Isa.Shl (r, a) -> alu t pc r (Word.shift_left t.regs.(r) a)
      | Isa.Shr (r, a) -> alu t pc r (Word.shift_right t.regs.(r) a)
      | Isa.Beq off ->
        if t.flag_z then t.regs.(Isa.pc_reg) <- Word.of_int (pc + 1 + off) else bump t pc;
        Stepped
      | Isa.Bne off ->
        if not t.flag_z then t.regs.(Isa.pc_reg) <- Word.of_int (pc + 1 + off) else bump t pc;
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
    touched = no_touches ();
  }

let rec ints_from (a : int array) (b : int array) i =
  i = Array.length a || (a.(i) = b.(i) && ints_from a b (i + 1))

let same_ints (a : int array) (b : int array) = Array.length a = Array.length b && ints_from a b 0

let same_kind x y =
  match (x, y) with
  | Rx, Rx | Tx, Tx | Xform Identity, Xform Identity -> true
  | Xform (Xor_key k), Xform (Xor_key k') | Xform (Add_key k), Xform (Add_key k') -> k = k'
  | (Rx | Tx | Xform _), _ -> false

let same_device x y =
  same_kind x.kind y.kind && x.data = y.data && x.status = y.status && Bool.equal x.irq y.irq

let rec devices_from (a : device array) (b : device array) i =
  i = Array.length a || (same_device a.(i) b.(i) && devices_from a b (i + 1))

let same_mode x y = match (x, y) with User, User | Kernel, Kernel -> true | (User | Kernel), _ -> false

(* The instruction counter is bookkeeping, not machine state: two runs that
   reach the same machine configuration by different paths are the same
   state for verification purposes. Every compare is on ints, bools or
   constructors, field by field: no polymorphic compare. *)
let equal a b =
  same_ints a.mem b.mem && same_ints a.regs b.regs
  && Bool.equal a.flag_z b.flag_z && Bool.equal a.flag_n b.flag_n
  && a.mm.base = b.mm.base && a.mm.limit = b.mm.limit && same_ints a.mm.dev_slots b.mm.dev_slots
  && same_mode a.cpu_mode b.cpu_mode && same_ints a.frame b.frame
  && same_ints a.mmu_shadow b.mmu_shadow
  && Array.length a.devices = Array.length b.devices
  && devices_from a.devices b.devices 0

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
