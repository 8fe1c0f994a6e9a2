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

(* The machine's state words live in one buffer, 2 bytes a word, at fixed
   word offsets:

     0                 the eight registers
     8                 the MMU device slots, [max 8 ndevs] of them; slots
                       past [nslots] hold 0
     frame_off         the trap frame (10 words)
     shadow_off        the MMU shadow registers (11 words)
     dev_off           (data, status, irq) for each device
     mem_off           memory

   The scalars the kernel reads on every instruction are record fields:
   the flags and the mode in [psw], the MMU base, limit and slot count.
   Device kinds are configuration, shared by every copy. *)
type t = {
  words : Bytes.t;
  kinds : device_kind array;
  frame_off : int;
  shadow_off : int;
  dev_off : int;
  mem_off : int;
  mem_words : int;
  mutable psw : int;  (* Z in bit 0, N in bit 1, kernel mode in bit 2 *)
  mutable base : int;
  mutable limit : int;
  mutable nslots : int;
  mutable instructions : int;
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

(* [Isa]'s register count and PC number as literals: the offsets and
   indices computed from them are then constants, where a value read from
   another module is a load on every use. *)
let num_regs = 8
let pc_reg = 7
let () = assert (num_regs = Isa.num_regs && pc_reg = Isa.pc_reg)
let slots_off = num_regs
let flag_z_bit = 1
let flag_n_bit = 2
let kernel_bit = 4

(* Unchecked 16-bit accesses, by word index. Every caller passes an index
   that is in range by construction: a register number from a decoded
   instruction, a slot below [nslots], a device id from a slot, or a
   memory address checked against [mem_words] or the MMU window. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let word b i = get16u b (2 * i)
let set_word b i w = set16u b (2 * i) w

let no_touches () = { count = 0; dev0 = 0; data0 = 0; status0 = 0; dev1 = 0; data1 = 0; status1 = 0 }

let create ~mem_words ~devices =
  assert (mem_words > 0 && mem_words <= device_space);
  let kinds = Array.of_list devices in
  let ndevs = Array.length kinds in
  let frame_off = slots_off + max 8 ndevs in
  let shadow_off = frame_off + frame_words in
  let dev_off = shadow_off + mmu_words in
  let mem_off = dev_off + (3 * ndevs) in
  {
    words = Bytes.make (2 * (mem_off + mem_words)) '\000';
    kinds;
    frame_off;
    shadow_off;
    dev_off;
    mem_off;
    mem_words;
    psw = 0;
    base = 0;
    limit = 0;
    nslots = 0;
    instructions = 0;
    touched = no_touches ();
  }

let mem_size t = t.mem_words
let num_devices t = Array.length t.kinds

(* The accessors raise in tail position, so that the in-range path needs
   no stack frame. *)
let read_phys t a =
  if a < 0 || a >= t.mem_words then invalid_arg "Machine.read_phys" else word t.words (t.mem_off + a)

let[@inline] check_range what t a n = if a < 0 || n < 0 || a + n > t.mem_words then invalid_arg what

let read_phys_slice t a n =
  check_range "Machine.read_phys_slice" t a n;
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    out.(i) <- word t.words (t.mem_off + a + i)
  done;
  out

let read_phys_words t a n =
  check_range "Machine.read_phys_words" t a n;
  Bytes.sub t.words (2 * (t.mem_off + a)) (2 * n)

let write_phys t a w =
  if a < 0 || a >= t.mem_words then invalid_arg "Machine.write_phys"
  else set_word t.words (t.mem_off + a) w

let write_phys_words t a b =
  if Bytes.length b land 1 <> 0 then invalid_arg "Machine.write_phys_words";
  check_range "Machine.write_phys_words" t a (Bytes.length b / 2);
  Bytes.blit b 0 t.words (2 * (t.mem_off + a)) (Bytes.length b)

let get_reg t r = if r < 0 || r >= num_regs then invalid_arg "Machine.get_reg" else word t.words r
let set_reg t r w = if r < 0 || r >= num_regs then invalid_arg "Machine.set_reg" else set_word t.words r w

let get_flags t = (t.psw land flag_z_bit <> 0, t.psw land flag_n_bit <> 0)

let set_flags t (z, n) = t.psw <- (t.psw land kernel_bit) lor Bool.to_int z lor (Bool.to_int n lsl 1)

(* Slots past the count go back to 0, so that equal maps have equal
   words. *)
let set_slot_count t n =
  for k = n to t.nslots - 1 do
    set_word t.words (slots_off + k) 0
  done;
  t.nslots <- n

let set_mmu t ~base ~limit ~dev_slots =
  assert (base >= 0 && limit >= 0 && base + limit <= t.mem_words);
  let n = Array.length dev_slots and ndevs = Array.length t.kinds in
  if n > t.frame_off - slots_off then invalid_arg "Machine.set_mmu: more slots than the MMU has";
  for k = 0 to n - 1 do
    let d = dev_slots.(k) in
    if d < 0 || d >= ndevs then invalid_arg "Machine.set_mmu: a slot names no device"
  done;
  t.base <- base;
  t.limit <- limit;
  for k = 0 to n - 1 do
    set_word t.words (slots_off + k) dev_slots.(k)
  done;
  set_slot_count t n

let mmu_state t = (t.base, t.limit, Array.init t.nslots (fun k -> word t.words (slots_off + k)))

let read_control t a =
  if a >= frame_base && a < frame_base + frame_words then word t.words (t.frame_off + a - frame_base)
  else if a >= mmu_base && a < mmu_base + mmu_words then word t.words (t.shadow_off + a - mmu_base)
  else invalid_arg "Machine.read_control"

let device_kind t d = t.kinds.(d)

let[@inline] no_device t d = d < 0 || d >= Array.length t.kinds

(* The word indices of device [d]'s data register, status register and
   IRQ line. *)
let data_at t d = t.dev_off + (3 * d)
let status_at t d = t.dev_off + (3 * d) + 1
let irq_at t d = t.dev_off + (3 * d) + 2

let apply_transform tr w =
  match tr with
  | Identity -> w
  | Xor_key k -> Word.logxor w k
  | Add_key k -> Word.add w k

let device_input t d w =
  (match t.kinds.(d) with
  | Rx -> ()
  | Tx | Xform _ -> invalid_arg "Machine.device_input: not an Rx device");
  set_word t.words (data_at t d) w;
  set_word t.words (status_at t d) 1;
  set_word t.words (irq_at t d) 1

let device_data t d =
  if no_device t d then invalid_arg "Machine.device_data" else word t.words (data_at t d)

let device_status t d =
  if no_device t d then invalid_arg "Machine.device_status" else word t.words (status_at t d)

let device_regs t d =
  if no_device t d then invalid_arg "Machine.device_regs"
  else (word t.words (data_at t d), word t.words (status_at t d))

let set_device_regs t d ~data ~status =
  if no_device t d then invalid_arg "Machine.set_device_regs"
  else begin
    set_word t.words (data_at t d) data;
    set_word t.words (status_at t d) status
  end

let complete_transmissions t =
  for d = 0 to Array.length t.kinds - 1 do
    match Array.unsafe_get t.kinds d with
    | Tx -> if word t.words (status_at t d) = 1 then set_word t.words (status_at t d) 0
    | Rx | Xform _ -> ()
  done

let irq_pending t d =
  if no_device t d then invalid_arg "Machine.irq_pending" else word t.words (irq_at t d) <> 0

let field_irq t d = if no_device t d then invalid_arg "Machine.field_irq" else set_word t.words (irq_at t d) 0

(* Assert a device's interrupt line without latching any data — a
   spurious or duplicated interrupt, as injected by fault campaigns. *)
let raise_irq t d = if no_device t d then invalid_arg "Machine.raise_irq" else set_word t.words (irq_at t d) 1

(* -- The device-touch record ------------------------------------------------ *)

(* Keep device [d]'s registers as they were before its first touch in this
   instruction; a later touch of the same device changes nothing here. *)
let touch t d =
  let tc = t.touched in
  if tc.count = 0 then begin
    tc.dev0 <- d;
    tc.data0 <- word t.words (data_at t d);
    tc.status0 <- word t.words (status_at t d);
    tc.count <- 1
  end
  else if tc.count = 1 && tc.dev0 <> d then begin
    tc.dev1 <- d;
    tc.data1 <- word t.words (data_at t d);
    tc.status1 <- word t.words (status_at t d);
    tc.count <- 2
  end

let rec mem_int (a : int array) x i = i < Array.length a && (a.(i) = x || mem_int a x (i + 1))

(* Whether device [d], one of [ds], no longer holds (data, status). *)
let differs t ds d data status =
  (word t.words (data_at t d) <> data || word t.words (status_at t d) <> status) && mem_int ds d 0

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
  let b = t.words and sh = t.shadow_off in
  let mem = t.mem_words and ndevs = Array.length t.kinds in
  let base = min (word b sh) mem in
  let limit = min (word b (sh + 1)) (mem - base) in
  let count = if ndevs = 0 then 0 else min (word b (sh + 2)) 8 in
  for k = 0 to count - 1 do
    let d = word b (sh + 3 + k) in
    set_word b (slots_off + k) (if d < ndevs then d else 0)
  done;
  set_slot_count t count;
  t.base <- base;
  t.limit <- limit

let dev_read t d ~status =
  touch t d;
  if status then word t.words (status_at t d)
  else begin
    match Array.unsafe_get t.kinds d with
    | Rx ->
      (* Reading the data register consumes the buffered word. *)
      set_word t.words (status_at t d) 0;
      word t.words (data_at t d)
    | Tx | Xform _ -> word t.words (data_at t d)
  end

let dev_write t d ~status w =
  touch t d;
  if status then set_word t.words (status_at t d) w
  else begin
    match Array.unsafe_get t.kinds d with
    | Tx ->
      set_word t.words (data_at t d) w;
      set_word t.words (status_at t d) 1 (* pending transmission *)
    | Xform tr ->
      set_word t.words (data_at t d) (apply_transform tr w);
      set_word t.words (status_at t d) 1 (* result ready *)
    | Rx -> set_word t.words (data_at t d) w
  end

let load t vaddr =
  if vaddr < 0 then violation
  else if t.psw land kernel_bit = 0 then begin
    if vaddr < device_space then begin
      if vaddr < t.limit then word t.words (t.mem_off + t.base + vaddr) else violation
    end
    else begin
      let off = vaddr - device_space in
      let slot = off lsr 1 in
      if slot < t.nslots then dev_read t (word t.words (slots_off + slot)) ~status:(off land 1 = 1)
      else violation
    end
  end
  else begin
    (* physical addressing plus the privileged register files *)
    if vaddr < t.mem_words then word t.words (t.mem_off + vaddr)
    else if vaddr >= frame_base && vaddr < frame_base + frame_words then
      word t.words (t.frame_off + vaddr - frame_base)
    else if vaddr >= mmu_base && vaddr < mmu_base + mmu_words then
      word t.words (t.shadow_off + vaddr - mmu_base)
    else violation
  end

let store t vaddr w =
  if vaddr < 0 then false
  else if t.psw land kernel_bit = 0 then begin
    if vaddr < device_space then begin
      if vaddr < t.limit then begin
        set_word t.words (t.mem_off + t.base + vaddr) w;
        true
      end
      else false
    end
    else begin
      let off = vaddr - device_space in
      let slot = off lsr 1 in
      if slot < t.nslots then begin
        dev_write t (word t.words (slots_off + slot)) ~status:(off land 1 = 1) (Word.of_int w);
        true
      end
      else false
    end
  end
  else begin
    if vaddr < t.mem_words then begin
      set_word t.words (t.mem_off + vaddr) w;
      true
    end
    else if vaddr >= frame_base && vaddr < frame_base + frame_words then begin
      set_word t.words (t.frame_off + vaddr - frame_base) w;
      true
    end
    else if vaddr >= mmu_base && vaddr < mmu_base + mmu_words then begin
      set_word t.words (t.shadow_off + vaddr - mmu_base) w;
      apply_mmu_shadow t;
      true
    end
    else false
  end

let store_user t vaddr w =
  t.touched.count <- 0;
  store t vaddr w

let set_zn t w =
  t.psw <- (t.psw land kernel_bit) lor Bool.to_int (Word.is_zero w) lor ((w lsr 14) land flag_n_bit)

let reg t r = word t.words r
let set_reg_word t r w = set_word t.words r w

let bump t pc = set_reg_word t pc_reg (Word.add pc 1)

let alu t pc dst v =
  set_zn t v;
  set_reg_word t dst v;
  bump t pc;
  Stepped

let access_fault t vaddr =
  if t.psw land kernel_bit = 0 && vaddr >= device_space then Faulted (Device_violation vaddr)
  else Faulted (Mem_violation vaddr)

let step_user t =
  t.touched.count <- 0;
  let pc = reg t pc_reg in
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
        if t.psw land kernel_bit <> 0 then begin
          Bytes.blit t.words (2 * t.frame_off) t.words 0 (2 * num_regs);
          t.psw <- word t.words (t.frame_off + 8) land (flag_z_bit lor flag_n_bit);
          Returned
        end
        else Faulted (Illegal_instruction insn_word)
      | Isa.Trap n ->
        bump t pc;
        Trapped n
      | Isa.Loadi (r, imm) -> alu t pc r (Word.of_int imm)
      | Isa.Load (r, b, off) ->
        let vaddr = Word.add (reg t b) (Word.of_int off) in
        let v = load t vaddr in
        if v = violation then access_fault t vaddr else alu t pc r v
      | Isa.Store (r, b, off) ->
        let vaddr = Word.add (reg t b) (Word.of_int off) in
        if store t vaddr (reg t r) then begin
          bump t pc;
          Stepped
        end
        else access_fault t vaddr
      | Isa.Mov (d, s) -> alu t pc d (reg t s)
      | Isa.Add (d, s) -> alu t pc d (Word.add (reg t d) (reg t s))
      | Isa.Sub (d, s) -> alu t pc d (Word.sub (reg t d) (reg t s))
      | Isa.And_ (d, s) -> alu t pc d (Word.logand (reg t d) (reg t s))
      | Isa.Or_ (d, s) -> alu t pc d (Word.logor (reg t d) (reg t s))
      | Isa.Xor (d, s) -> alu t pc d (Word.logxor (reg t d) (reg t s))
      | Isa.Cmp (d, s) ->
        set_zn t (Word.sub (reg t d) (reg t s));
        bump t pc;
        Stepped
      | Isa.Shl (r, a) -> alu t pc r (Word.shift_left (reg t r) a)
      | Isa.Shr (r, a) -> alu t pc r (Word.shift_right (reg t r) a)
      | Isa.Beq off ->
        if t.psw land flag_z_bit <> 0 then set_reg_word t pc_reg (pc + 1 + off) else bump t pc;
        Stepped
      | Isa.Bne off ->
        if t.psw land flag_z_bit = 0 then set_reg_word t pc_reg (pc + 1 + off) else bump t pc;
        Stepped
      | Isa.Br off ->
        set_reg_word t pc_reg (pc + 1 + off);
        Stepped)
  end

let instruction_count t = t.instructions

let mode t = if t.psw land kernel_bit = 0 then User else Kernel

let enter_kernel t ~cause ~vector =
  Bytes.blit t.words 0 t.words (2 * t.frame_off) (2 * num_regs);
  set_word t.words (t.frame_off + 8) (t.psw land (flag_z_bit lor flag_n_bit));
  set_word t.words (t.frame_off + 9) cause;
  t.psw <- t.psw lor kernel_bit;
  set_reg_word t pc_reg vector

(* A record copy and one [Bytes.copy]: the buffer holds no pointers, so
   the copy is one allocation and a memcpy, with no write barrier. *)
let copy t = { t with words = Bytes.copy t.words; touched = no_touches () }

let same_kind x y =
  match (x, y) with
  | Rx, Rx | Tx, Tx | Xform Identity, Xform Identity -> true
  | Xform (Xor_key k), Xform (Xor_key k') | Xform (Add_key k), Xform (Add_key k') -> k = k'
  | (Rx | Tx | Xform _), _ -> false

let rec kinds_from (a : device_kind array) (b : device_kind array) i =
  i = Array.length a || (same_kind a.(i) b.(i) && kinds_from a b (i + 1))

let same_kinds a b = a == b || (Array.length a = Array.length b && kinds_from a b 0)

(* The instruction counter is bookkeeping, not machine state: two runs that
   reach the same machine configuration by different paths are the same
   state for verification purposes. The scalars first, then the buffer,
   then the kinds, which copies share. *)
let equal a b =
  a.psw = b.psw && a.base = b.base && a.limit = b.limit && a.nslots = b.nslots
  && Bytes.equal a.words b.words && same_kinds a.kinds b.kinds

(* One word per device: kind tag, IRQ line, 16-bit status and data. *)
let device_word t d =
  let kind = match Array.unsafe_get t.kinds d with Rx -> 0 | Tx -> 1 | Xform _ -> 2 in
  kind lor (word t.words (irq_at t d) lsl 2) lor (word t.words (status_at t d) lsl 3)
  lor (word t.words (data_at t d) lsl 19)

(* Mixes every word [equal] compares, in an order pinned digests rely
   on: memory, registers, flags and mode, base, limit, slots, trap frame,
   MMU shadow, devices. See [Sep_util.Mix]. *)
let hash t =
  let module Mix = Sep_util.Mix in
  let b = t.words in
  let h = Mix.words16 (Mix.words16 Mix.seed b t.mem_off t.mem_words) b 0 num_regs in
  let h = Mix.int h t.psw in
  let h = Mix.words16 (Mix.int (Mix.int h t.base) t.limit) b slots_off t.nslots in
  let h = ref (Mix.words16 (Mix.words16 h b t.frame_off frame_words) b t.shadow_off mmu_words) in
  for d = 0 to Array.length t.kinds - 1 do
    h := Mix.int !h (device_word t d)
  done;
  Mix.finish !h

let pp ppf t =
  let digest = ref 0 in
  for a = 0 to t.mem_words - 1 do
    digest := (!digest * 31) + word t.words (t.mem_off + a)
  done;
  let base, limit, slots = mmu_state t in
  let device d = (word t.words (data_at t d), word t.words (status_at t d), word t.words (irq_at t d) <> 0) in
  Fmt.pf ppf "@[<v>%s regs=%a z=%b n=%b@ mmu=(base=%d limit=%d slots=%a)@ devs=%a@ mem#=%08x@]"
    (if t.psw land kernel_bit = 0 then "user" else "KERNEL")
    Fmt.(Dump.array int)
    (Array.init num_regs (reg t))
    (t.psw land flag_z_bit <> 0) (t.psw land flag_n_bit <> 0) base limit
    Fmt.(Dump.array int)
    slots
    Fmt.(Dump.array (fun ppf (data, status, irq) -> Fmt.pf ppf "(%x,%x,%b)" data status irq))
    (Array.init (Array.length t.kinds) device)
    !digest
