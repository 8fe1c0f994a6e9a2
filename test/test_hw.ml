(* Tests for the simulated hardware: words, ISA codec, assembler, machine
   semantics, MMU protection and devices. *)

module Word = Sep_hw.Word
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine
module Prng = Sep_util.Prng

let qtest = QCheck_alcotest.to_alcotest

(* -- Word ------------------------------------------------------------------ *)

let test_word_wrap () =
  Alcotest.(check int) "add wraps" 0 (Word.add 0xffff 1);
  Alcotest.(check int) "sub wraps" 0xffff (Word.sub 0 1);
  Alcotest.(check int) "of_int truncates" 0x2345 (Word.of_int 0x12345);
  Alcotest.(check int) "of_int negative" 0xffff (Word.of_int (-1))

let test_word_signed () =
  Alcotest.(check int) "positive" 5 (Word.to_signed 5);
  Alcotest.(check int) "negative" (-1) (Word.to_signed 0xffff);
  Alcotest.(check int) "min" (-32768) (Word.to_signed 0x8000)

let test_word_flags () =
  Alcotest.(check bool) "zero" true (Word.is_zero 0);
  Alcotest.(check bool) "negative bit" true (Word.is_negative 0x8000);
  Alcotest.(check bool) "positive" false (Word.is_negative 0x7fff)

let word_ops_stay_in_range =
  QCheck.Test.make ~name:"word ops stay 16-bit" ~count:500
    QCheck.(pair (int_range 0 0xffff) (int_range 0 0xffff))
    (fun (a, b) ->
      let ok w = w >= 0 && w <= 0xffff in
      ok (Word.add a b) && ok (Word.sub a b) && ok (Word.lognot a)
      && ok (Word.shift_left a (b land 15))
      && ok (Word.shift_right a (b land 15)))

(* -- ISA codec ------------------------------------------------------------- *)

let gen_instr =
  let open QCheck.Gen in
  let reg = int_range 0 7 in
  oneof
    [
      return Isa.Nop;
      return Isa.Halt;
      map (fun n -> Isa.Trap n) (int_range 0 255);
      map2 (fun r i -> Isa.Loadi (r, i)) reg (int_range 0 255);
      map3 (fun r b o -> Isa.Load (r, b, o)) reg reg (int_range 0 63);
      map3 (fun r b o -> Isa.Store (r, b, o)) reg reg (int_range 0 63);
      map2 (fun d s -> Isa.Mov (d, s)) reg reg;
      map2 (fun d s -> Isa.Add (d, s)) reg reg;
      map2 (fun d s -> Isa.Sub (d, s)) reg reg;
      map2 (fun d s -> Isa.And_ (d, s)) reg reg;
      map2 (fun d s -> Isa.Or_ (d, s)) reg reg;
      map2 (fun d s -> Isa.Xor (d, s)) reg reg;
      map2 (fun d s -> Isa.Cmp (d, s)) reg reg;
      map2 (fun r a -> Isa.Shl (r, a)) reg (int_range 0 15);
      map2 (fun r a -> Isa.Shr (r, a)) reg (int_range 0 15);
      map (fun o -> Isa.Beq o) (int_range (-128) 127);
      map (fun o -> Isa.Bne o) (int_range (-128) 127);
      map (fun o -> Isa.Br o) (int_range (-128) 127);
    ]

let arb_instr = QCheck.make ~print:(Fmt.str "%a" Isa.pp) gen_instr

let codec_roundtrip =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:1000 arb_instr (fun i ->
      Isa.decode (Isa.encode i) = Some i)

let decode_total =
  QCheck.Test.make ~name:"decode never raises" ~count:1000
    QCheck.(int_range 0 0xffff)
    (fun w ->
      match Isa.decode w with
      | Some i -> Isa.decode (Isa.encode i) = Some i
      | None -> true)

let test_encode_rejects_bad_fields () =
  Alcotest.check_raises "register out of range" (Invalid_argument "Isa.encode: register")
    (fun () -> ignore (Isa.encode (Isa.Mov (8, 0))));
  Alcotest.check_raises "immediate out of range" (Invalid_argument "Isa.encode: immediate")
    (fun () -> ignore (Isa.encode (Isa.Loadi (0, 256))));
  Alcotest.check_raises "branch out of range" (Invalid_argument "Isa.encode: branch offset")
    (fun () -> ignore (Isa.encode (Isa.Br 128)))

let test_assembler_labels () =
  let code =
    Isa.assemble
      [
        Isa.Label "start";
        Isa.Instr Isa.Nop;
        Isa.Branch "start";
        Isa.Branch_eq "end";
        Isa.Label "end";
        Isa.Instr Isa.Halt;
      ]
  in
  Alcotest.(check int) "length" 4 (Array.length code);
  Alcotest.(check (option (testable Isa.pp ( = )))) "backward branch" (Some (Isa.Br (-2)))
    (Isa.decode code.(1));
  Alcotest.(check (option (testable Isa.pp ( = )))) "forward branch" (Some (Isa.Beq 0))
    (Isa.decode code.(2))

let test_assembler_errors () =
  Alcotest.check_raises "undefined label" (Failure "Isa.assemble: undefined label nowhere")
    (fun () -> ignore (Isa.assemble [ Isa.Branch "nowhere" ]));
  Alcotest.check_raises "duplicate label" (Failure "Isa.assemble: duplicate label x") (fun () ->
      ignore (Isa.assemble [ Isa.Label "x"; Isa.Label "x" ]))

let test_assembler_data_words () =
  let code = Isa.assemble [ Isa.Word 0xabcd; Isa.Word 42 ] in
  Alcotest.(check int) "literal word" 0xabcd code.(0);
  Alcotest.(check int) "second" 42 code.(1)

(* -- Machine --------------------------------------------------------------- *)

let machine_with program =
  let m = Machine.create ~mem_words:64 ~devices:[ Machine.Rx; Machine.Tx; Machine.Xform (Machine.Xor_key 0xff) ] in
  Array.iteri (fun i w -> Machine.write_phys m (16 + i) w) (Isa.assemble program);
  Machine.set_mmu m ~base:16 ~limit:32 ~dev_slots:[| 0; 1; 2 |];
  m

let step_n m n =
  let rec loop i last = if i >= n then last else loop (i + 1) (Machine.step_user m) in
  loop 0 Machine.Stepped

let test_machine_alu () =
  let m = machine_with [ Isa.Instr (Isa.Loadi (0, 20)); Isa.Instr (Isa.Loadi (1, 22)); Isa.Instr (Isa.Add (0, 1)) ] in
  ignore (step_n m 3);
  Alcotest.(check int) "20+22" 42 (Machine.get_reg m 0);
  Alcotest.(check int) "pc advanced" 3 (Machine.get_reg m Isa.pc_reg)

let test_machine_flags_and_branch () =
  let m =
    machine_with
      [
        Isa.Instr (Isa.Loadi (0, 5));
        Isa.Instr (Isa.Loadi (1, 5));
        Isa.Instr (Isa.Cmp (0, 1));
        Isa.Instr (Isa.Beq 1);
        Isa.Instr (Isa.Loadi (2, 1));  (* skipped *)
        Isa.Instr (Isa.Loadi (3, 7));
      ]
  in
  ignore (step_n m 5);
  Alcotest.(check int) "branch taken skips" 0 (Machine.get_reg m 2);
  Alcotest.(check int) "lands after" 7 (Machine.get_reg m 3)

let test_machine_memory () =
  let m =
    machine_with
      [
        Isa.Instr (Isa.Loadi (0, 0xaa));
        Isa.Instr (Isa.Loadi (1, 30));
        Isa.Instr (Isa.Store (0, 1, 1));  (* mem[31] := 0xaa *)
        Isa.Instr (Isa.Load (2, 1, 1));
      ]
  in
  ignore (step_n m 4);
  Alcotest.(check int) "loaded back" 0xaa (Machine.get_reg m 2);
  Alcotest.(check int) "physical placement" 0xaa (Machine.read_phys m (16 + 31))

let test_machine_mmu_violation () =
  let m = machine_with [ Isa.Instr (Isa.Loadi (1, 40)); Isa.Instr (Isa.Load (0, 1, 0)) ] in
  ignore (Machine.step_user m);
  (match Machine.step_user m with
  | Machine.Faulted (Machine.Mem_violation a) -> Alcotest.(check int) "faulting vaddr" 40 a
  | _ -> Alcotest.fail "expected a memory violation");
  Alcotest.(check int) "pc left at faulting instruction" 1 (Machine.get_reg m Isa.pc_reg)

let test_machine_illegal () =
  let m = Machine.create ~mem_words:8 ~devices:[] in
  Machine.write_phys m 0 0xffff;
  Machine.set_mmu m ~base:0 ~limit:8 ~dev_slots:[||];
  match Machine.step_user m with
  | Machine.Faulted (Machine.Illegal_instruction w) -> Alcotest.(check int) "word" 0xffff w
  | _ -> Alcotest.fail "expected illegal instruction"

let test_machine_trap_and_halt () =
  let m = machine_with [ Isa.Instr (Isa.Trap 3); Isa.Instr Isa.Halt ] in
  (match Machine.step_user m with
  | Machine.Trapped 3 -> ()
  | _ -> Alcotest.fail "expected trap 3");
  match Machine.step_user m with
  | Machine.Waiting -> ()
  | _ -> Alcotest.fail "expected waiting"

let test_machine_rx_device () =
  let m =
    machine_with
      [
        Isa.Instr (Isa.Loadi (6, 1));
        Isa.Instr (Isa.Shl (6, 15));
        Isa.Instr (Isa.Load (0, 6, 1));  (* status *)
        Isa.Instr (Isa.Load (1, 6, 0));  (* data, consuming *)
        Isa.Instr (Isa.Load (2, 6, 1));  (* status again *)
      ]
  in
  let irqs () = List.filter (Machine.irq_pending m) (List.init (Machine.num_devices m) Fun.id) in
  Machine.device_input m 0 0x7b;
  Alcotest.(check (list int)) "irq raised" [ 0 ] (irqs ());
  Machine.field_irq m 0;
  Alcotest.(check (list int)) "irq fielded" [] (irqs ());
  ignore (step_n m 5);
  Alcotest.(check int) "status was full" 1 (Machine.get_reg m 0);
  Alcotest.(check int) "data read" 0x7b (Machine.get_reg m 1);
  Alcotest.(check int) "read consumed" 0 (Machine.get_reg m 2)

let test_machine_tx_device () =
  let m =
    machine_with
      [
        Isa.Instr (Isa.Loadi (6, 1));
        Isa.Instr (Isa.Shl (6, 15));
        Isa.Instr (Isa.Loadi (0, 0x55));
        Isa.Instr (Isa.Store (0, 6, 2));  (* slot 1 data *)
      ]
  in
  ignore (step_n m 4);
  Alcotest.(check (pair int int)) "tx pending" (0x55, 1) (Machine.device_regs m 1);
  Machine.complete_transmissions m;
  Alcotest.(check (pair int int)) "transmitted" (0x55, 0) (Machine.device_regs m 1);
  Machine.complete_transmissions m;
  Alcotest.(check (pair int int)) "nothing left to send" (0x55, 0) (Machine.device_regs m 1)

let test_machine_xform_device () =
  let m =
    machine_with
      [
        Isa.Instr (Isa.Loadi (6, 1));
        Isa.Instr (Isa.Shl (6, 15));
        Isa.Instr (Isa.Loadi (0, 0x0f));
        Isa.Instr (Isa.Store (0, 6, 4));  (* slot 2: xform *)
        Isa.Instr (Isa.Load (1, 6, 4));
      ]
  in
  ignore (step_n m 5);
  Alcotest.(check int) "xor applied" 0xf0 (Machine.get_reg m 1)

let test_machine_device_violation () =
  let m = machine_with [ Isa.Instr (Isa.Loadi (6, 1)); Isa.Instr (Isa.Shl (6, 15)); Isa.Instr (Isa.Load (0, 6, 8)) ] in
  ignore (step_n m 2);
  match Machine.step_user m with
  | Machine.Faulted (Machine.Device_violation _) -> ()
  | _ -> Alcotest.fail "expected device violation"

let test_machine_copy_equal () =
  let m = machine_with [ Isa.Instr (Isa.Loadi (0, 1)) ] in
  let m2 = Machine.copy m in
  Alcotest.(check bool) "copies equal" true (Machine.equal m m2);
  Alcotest.(check bool) "same hash" true (Machine.hash m = Machine.hash m2);
  ignore (Machine.step_user m);
  Alcotest.(check bool) "diverged" false (Machine.equal m m2);
  Alcotest.(check int) "copy untouched" 0 (Machine.get_reg m2 0)

(* The hash reads the whole state: machines that differ only at the far
   end of memory, in the last trap-frame word, or in one device's IRQ
   line hash apart. A hash that stops after the first few words would
   put each pair in one bucket. *)
let test_machine_hash_sees_whole_state () =
  let base = machine_with [ Isa.Instr Isa.Nop ] in
  Machine.enter_kernel base ~cause:0 ~vector:0;
  let differs what mutate =
    let m = Machine.copy base in
    mutate m;
    Alcotest.(check bool) (what ^ ": not equal") false (Machine.equal base m);
    Alcotest.(check bool) (what ^ ": hashes apart") true (Machine.hash base <> Machine.hash m)
  in
  differs "last memory word" (fun m -> Machine.write_phys m (Machine.mem_size m - 1) 1);
  differs "last frame word" (fun m ->
      Alcotest.(check bool) "frame writable in kernel mode" true
        (Machine.store_user m (Machine.frame_base + 9) 1));
  differs "one device's irq" (fun m -> Machine.raise_irq m 2)

(* Every word of state, flipped alone: each memory, register, trap-frame
   and MMU-shadow word, each device slot, the MMU base and limit, both
   flags, the mode, and each device's data, status and IRQ line. [equal]
   must see each flip and the hash must move. *)
let test_machine_equal_sees_every_flip () =
  let frame_words = Isa.num_regs + 2 (* registers, flags word, cause *) in
  let m0 = Machine.create ~mem_words:64 ~devices:[ Machine.Rx; Machine.Tx; Machine.Xform (Machine.Add_key 3) ] in
  (* mode alone: a zeroed machine entering the kernel at pc 0 changes
     nothing else *)
  let k0 = Machine.copy m0 in
  Machine.enter_kernel k0 ~cause:0 ~vector:0;
  Alcotest.(check bool) "mode: not equal" false (Machine.equal m0 k0);
  Alcotest.(check bool) "mode: hashes apart" true (Machine.hash m0 <> Machine.hash k0);
  (* a base with every word set, in kernel mode so that the frame and the
     MMU shadow are writable *)
  let mem = Machine.mem_size m0 in
  let base = Machine.copy m0 in
  for a = 0 to mem - 1 do
    Machine.write_phys base a ((a * 37) + 5)
  done;
  for r = 0 to Isa.num_regs - 1 do
    Machine.set_reg base r (100 + r)
  done;
  Machine.set_flags base (true, false);
  Machine.enter_kernel base ~cause:Machine.cause_send ~vector:40;
  let frame = Array.init frame_words (fun i -> 200 + i) in
  Array.iteri (fun i w -> ignore (Machine.store_user base (Machine.frame_base + i) w)) frame;
  let shadow = [| 8; 32; 3; 2; 0; 1; 7; 7; 7; 7; 7 |] in
  Array.iteri (fun i w -> ignore (Machine.store_user base (Machine.mmu_base + i) w)) shadow;
  let mmu_base = 8 and mmu_limit = 32 and slots = [| 2; 0; 1 |] in
  let restore_mmu m = Machine.set_mmu m ~base:mmu_base ~limit:mmu_limit ~dev_slots:slots in
  restore_mmu base;
  for d = 0 to Machine.num_devices base - 1 do
    Machine.set_device_regs base d ~data:(300 + d) ~status:1
  done;
  Machine.raise_irq base 1;
  let flips = ref 0 in
  let flip what mutate =
    let m = Machine.copy base in
    mutate m;
    incr flips;
    if Machine.equal base m then Alcotest.failf "%s: equal misses the flip" what;
    if Machine.equal m base then Alcotest.failf "%s: equal misses the flip (swapped)" what;
    if Machine.hash base = Machine.hash m then Alcotest.failf "%s: hash misses the flip" what
  in
  for a = 0 to mem - 1 do
    flip (Fmt.str "memory word %d" a) (fun m -> Machine.write_phys m a (Machine.read_phys m a lxor 1))
  done;
  for r = 0 to Isa.num_regs - 1 do
    flip (Fmt.str "register %d" r) (fun m -> Machine.set_reg m r (Machine.get_reg m r lxor 1))
  done;
  flip "flag z" (fun m -> Machine.set_flags m (false, false));
  flip "flag n" (fun m -> Machine.set_flags m (true, true));
  Array.iteri
    (fun i w ->
      flip (Fmt.str "frame word %d" i) (fun m ->
          ignore (Machine.store_user m (Machine.frame_base + i) (w lxor 1))))
    frame;
  Array.iteri
    (fun i w ->
      flip (Fmt.str "MMU shadow word %d" i) (fun m ->
          ignore (Machine.store_user m (Machine.mmu_base + i) (w lxor 1));
          restore_mmu m))
    shadow;
  flip "MMU base" (fun m -> Machine.set_mmu m ~base:(mmu_base + 1) ~limit:mmu_limit ~dev_slots:slots);
  flip "MMU limit" (fun m -> Machine.set_mmu m ~base:mmu_base ~limit:(mmu_limit + 1) ~dev_slots:slots);
  Array.iteri
    (fun k d ->
      flip (Fmt.str "device slot %d" k) (fun m ->
          let slots' = Array.copy slots in
          slots'.(k) <- (d + 1) mod 3;
          Machine.set_mmu m ~base:mmu_base ~limit:mmu_limit ~dev_slots:slots'))
    slots;
  flip "slot count" (fun m -> Machine.set_mmu m ~base:mmu_base ~limit:mmu_limit ~dev_slots:[| 2; 0 |]);
  for d = 0 to Machine.num_devices base - 1 do
    let data, status = Machine.device_regs base d in
    flip (Fmt.str "device %d data" d) (fun m -> Machine.set_device_regs m d ~data:(data lxor 1) ~status);
    flip (Fmt.str "device %d status" d) (fun m -> Machine.set_device_regs m d ~data ~status:(status lxor 1));
    flip (Fmt.str "device %d irq" d) (fun m ->
        if Machine.irq_pending m d then Machine.field_irq m d else Machine.raise_irq m d)
  done;
  Alcotest.(check int) "every word flipped"
    (mem + Isa.num_regs + 2 + frame_words + Array.length shadow + 2 + Array.length slots + 1 + 9)
    !flips;
  (* device kinds are configuration: [equal] still tells them apart *)
  let kinds = Machine.[ Rx; Tx; Xform Identity; Xform (Xor_key 1); Xform (Xor_key 2); Xform (Add_key 1) ] in
  List.iteri
    (fun i k ->
      List.iteri
        (fun j k' ->
          let a = Machine.create ~mem_words:4 ~devices:[ k ] and b = Machine.create ~mem_words:4 ~devices:[ k' ] in
          Alcotest.(check bool) (Fmt.str "kinds %d and %d" i j) (i = j) (Machine.equal a b))
        kinds)
    kinds

(* The reference [Machine.equal] is held to: structural equality of the
   state the interface describes, read part by part through the public
   accessors — the memory size and every memory word, the registers, the
   flags, the mode, the live MMU (base, limit, slots), every trap-frame
   and MMU-shadow word, and each device's kind, data, status and IRQ
   line. It reads nothing of the buffer's layout, and it leaves out what
   is bookkeeping: the instruction counter and the device-touch
   record. *)
let reference_equal (a : Machine.t) (b : Machine.t) =
  let parts m =
    ( List.init (Machine.mem_size m) (Machine.read_phys m),
      List.init Isa.num_regs (Machine.get_reg m),
      (Machine.get_flags m, Machine.mode m, Machine.mmu_state m),
      List.init 10 (fun i -> Machine.read_control m (Machine.frame_base + i)),
      List.init 11 (fun i -> Machine.read_control m (Machine.mmu_base + i)),
      List.init (Machine.num_devices m) (fun d ->
          (Machine.device_kind m d, Machine.device_regs m d, Machine.irq_pending m d)) )
  in
  parts a = parts b

(* Reachable kernel states, and for state [k] the states the checker
   derives from it — its post-INPUT states and their NEXTOP successors —
   each paired with the reachable state of its class, which the search
   may have reached by another path. *)
let reachable_machines =
  lazy
    (let module Sue = Sep_core.Sue in
     let module Scenarios = Sep_core.Scenarios in
     let module System = Sep_model.System in
     let inst = Scenarios.pipeline in
     let sys = Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
     let g = System.explore sys in
     let machine k = Sue.machine g.System.states.(k) in
     let derived k =
       List.concat
         (List.mapi
            (fun j i ->
              let mid = sys.System.input g.System.states.(k) i in
              let m = g.System.after_input.(k).(j) in
              [
                (machine m, Sue.machine mid);
                (machine g.System.after_op.(m), Sue.machine ((sys.System.nextop mid).System.op_apply mid));
              ])
            sys.System.inputs)
     in
     (Array.init (Array.length g.System.states) machine, derived))

(* One pair: two reachable states, a derived state and the reachable state
   of its class, or a state and a copy with one field mutated, possibly
   to its old value. *)
let machine_pair seed =
  let states, derived = Lazy.force reachable_machines in
  let rng = Prng.create seed in
  let any () = Prng.choose rng states in
  let word old = Prng.choose rng [| old; old lxor (1 lsl Prng.int rng 16); Prng.int rng 0x10000 |] in
  match Prng.int rng 3 with
  | 0 -> (any (), any ())
  | 1 -> Prng.choose rng (Array.of_list (derived (Prng.int rng (Array.length states))))
  | _ ->
    let a = any () in
    let m = Machine.copy a in
    let kernel = Machine.mode m = Machine.Kernel in
    let mem = Machine.mem_size m and ndevs = Machine.num_devices m in
    (match Prng.int rng 8 with
    | 0 ->
      let x = Prng.int rng mem in
      Machine.write_phys m x (word (Machine.read_phys m x))
    | 1 ->
      let r = Prng.int rng Isa.num_regs in
      Machine.set_reg m r (word (Machine.get_reg m r))
    | 2 -> Machine.set_flags m (Prng.bool rng, Prng.bool rng)
    | 3 ->
      let base = Prng.int rng mem in
      Machine.set_mmu m ~base ~limit:(Prng.int rng (mem - base + 1))
        ~dev_slots:(Array.init (Prng.int rng 4) (fun _ -> Prng.int rng ndevs))
    | 4 when kernel -> ignore (Machine.store_user m (Machine.frame_base + Prng.int rng (Isa.num_regs + 2)) (word 0))
    | 5 when kernel -> ignore (Machine.store_user m (Machine.mmu_base + Prng.int rng 11) (Prng.int rng 8))
    | 4 | 5 -> Machine.enter_kernel m ~cause:(Prng.int rng 7) ~vector:(Prng.int rng mem)
    | 6 ->
      let d = Prng.int rng ndevs in
      let data, status = Machine.device_regs m d in
      Machine.set_device_regs m d ~data:(word data) ~status:(word status)
    | _ ->
      let d = Prng.int rng ndevs in
      if Prng.bool rng then Machine.raise_irq m d else Machine.field_irq m d);
    (a, m)

let equal_agrees_with_reference =
  QCheck.Test.make ~name:"equal agrees with structural equality on reachable states" ~count:2000 QCheck.int
    (fun seed ->
      let a, b = machine_pair seed in
      Bool.equal (Machine.equal a b) (reference_equal a b) && Bool.equal (Machine.equal b a) (reference_equal a b))

let test_machine_instruction_count_not_state () =
  let a = machine_with [ Isa.Instr Isa.Nop; Isa.Instr (Isa.Br (-2)) ] in
  let b = Machine.copy a in
  ignore (step_n a 2);
  (* a is back at pc=0 with flags untouched by Nop/Br; only the counter moved *)
  Alcotest.(check bool) "counter excluded from equality" true (Machine.equal a b);
  Alcotest.(check int) "counter advanced" 2 (Machine.instruction_count a)

(* The slots past the granted count hold 0: a map shrunk in place equals
   one programmed small from the start, and hashes alike, whether it
   shrank through [set_mmu] or through the MMU shadow. *)
let test_machine_shrunk_slots_canonical () =
  let fresh () = Machine.create ~mem_words:64 ~devices:Machine.[ Rx; Tx; Rx; Tx ] in
  let same what a b =
    Alcotest.(check bool) (what ^ ": equal") true (Machine.equal a b && Machine.equal b a);
    Alcotest.(check int) (what ^ ": hash") (Machine.hash b) (Machine.hash a)
  in
  let a = fresh () and b = fresh () in
  Machine.set_mmu a ~base:4 ~limit:32 ~dev_slots:[| 3; 2; 1; 0 |];
  Machine.set_mmu a ~base:4 ~limit:32 ~dev_slots:[| 3 |];
  Machine.set_mmu b ~base:4 ~limit:32 ~dev_slots:[| 3 |];
  same "set_mmu, 4 slots to 1" a b;
  Machine.set_mmu a ~base:4 ~limit:32 ~dev_slots:[||];
  Machine.set_mmu b ~base:4 ~limit:32 ~dev_slots:[||];
  same "set_mmu, 1 slot to none" a b;
  (* the same through the shadow: both write the same shadow words, but
     [a] grants four slots before it grants one *)
  let a = fresh () and b = fresh () in
  let program m count =
    Machine.enter_kernel m ~cause:0 ~vector:0;
    List.iter
      (fun (off, w) ->
        Alcotest.(check bool) "shadow writable" true (Machine.store_user m (Machine.mmu_base + off) w))
      [ (0, 4); (1, 32); (3, 3); (4, 2); (5, 1); (6, 0); (2, count) ]
  in
  program a 4;
  let _, _, slots = Machine.mmu_state a in
  Alcotest.(check (array int)) "four slots granted" [| 3; 2; 1; 0 |] slots;
  Alcotest.(check bool) "shadow shrinks the map" true (Machine.store_user a (Machine.mmu_base + 2) 1);
  program b 1;
  same "shadow, 4 slots to 1" a b

(* [set_mmu] takes only device ids of the machine, and no more slots than
   the MMU has; a rejected map leaves the machine as it was. *)
let test_machine_set_mmu_rejects_bad_slot () =
  let m = Machine.create ~mem_words:64 ~devices:Machine.[ Rx; Tx ] in
  Machine.set_mmu m ~base:0 ~limit:32 ~dev_slots:[| 1 |];
  let before = Machine.copy m in
  List.iter
    (fun slots ->
      match Machine.set_mmu m ~base:8 ~limit:16 ~dev_slots:slots with
      | () -> Alcotest.failf "slots %a accepted" Fmt.(Dump.array int) slots
      | exception Invalid_argument _ -> ())
    [ [| 2 |]; [| 0; -1 |]; [| 0x7fff |]; Array.make 9 0 ];
  Alcotest.(check bool) "rejected maps change nothing" true (Machine.equal m before);
  (match Machine.set_mmu (Machine.create ~mem_words:8 ~devices:[]) ~base:0 ~limit:8 ~dev_slots:[| 0 |] with
  | () -> Alcotest.fail "a slot accepted on a machine without devices"
  | exception Invalid_argument _ -> ());
  (* eight slots, repeats allowed, are as many as the MMU has *)
  Machine.set_mmu m ~base:0 ~limit:32 ~dev_slots:(Array.make 8 1);
  let _, _, slots = Machine.mmu_state m in
  Alcotest.(check int) "eight slots" 8 (Array.length slots)

(* A kernel bug that programs a device slot on a machine without devices
   must fault the access, not take the simulator down. *)
let test_machine_no_devices_slot_faults () =
  let m = Machine.create ~mem_words:64 ~devices:[] in
  Machine.write_phys m 0 (Isa.encode (Isa.Load (0, 1, 0)));
  Machine.write_phys m 40 (Isa.encode Isa.Rti);
  Machine.set_reg m 1 Machine.device_space;
  Machine.enter_kernel m ~cause:0 ~vector:40;
  List.iter
    (fun (off, w) ->
      Alcotest.(check bool) "mmu control writable" true (Machine.store_user m (Machine.mmu_base + off) w))
    [ (1, 32); (3, 5); (2, 1) ];
  (match Machine.step_user m with
  | Machine.Returned -> ()
  | _ -> Alcotest.fail "expected Rti to return");
  match Machine.step_user m with
  | Machine.Faulted (Machine.Device_violation a) ->
    Alcotest.(check int) "faulting vaddr" Machine.device_space a
  | _ -> Alcotest.fail "expected a device violation"

(* -- device-effect record -------------------------------------------------- *)

(* The rule [Machine.devices_changed] stands for: snapshot every device's
   (data, status) before the step and compare after it. *)
let device_snapshot m = Array.init (Machine.num_devices m) (Machine.device_regs m)

let changed_since m before ds = Array.exists (fun d -> Machine.device_regs m d <> before.(d)) ds

let effect_devices =
  Machine.[ Rx; Tx; Xform (Xor_key 0x0f0f); Rx; Tx ]

(* A random user-mode machine: MMU slots that may repeat a device or leave
   one out, registers that mostly point into device space, and mostly
   loads and stores, in memory and in the device data registers (which the
   PC may fetch from). *)
let random_effect_machine rng =
  let module Prng = Sep_util.Prng in
  let m = Machine.create ~mem_words:64 ~devices:effect_devices in
  let word () = Prng.int rng 0x10000 in
  let insn () =
    let r = Prng.int rng 8 in
    let b = Prng.int rng 8 in
    let off = Prng.int rng 10 in
    match Prng.int rng 6 with
    | 0 | 1 -> Isa.encode (Isa.Load (r, b, off))
    | 2 | 3 -> Isa.encode (Isa.Store (r, b, off))
    | 4 -> Isa.encode (Isa.Loadi (r, Prng.int rng 2))
    | _ -> word ()
  in
  for a = 0 to 31 do
    Machine.write_phys m a (insn ())
  done;
  List.iteri
    (fun d _ ->
      let data = if Prng.bool rng then insn () else word () in
      let status = if Prng.int rng 5 = 0 then word () else Prng.int rng 2 in
      Machine.set_device_regs m d ~data ~status)
    effect_devices;
  Machine.set_mmu m ~base:0 ~limit:32 ~dev_slots:(Array.init (Prng.int rng 5) (fun _ -> Prng.int rng 5));
  for r = 0 to Isa.num_regs - 2 do
    Machine.set_reg m r
      (match Prng.int rng 3 with
      | 0 -> Prng.int rng 40
      | 1 -> word ()
      | _ -> Machine.device_space + Prng.int rng 10)
  done;
  Machine.set_reg m Isa.pc_reg
    (if Prng.bool rng then Prng.int rng 32 else Machine.device_space + Prng.int rng 10);
  let ds = Array.of_list (List.filter (fun _ -> Prng.bool rng) [ 0; 1; 2; 3; 4 ]) in
  (m, ds)

let devices_changed_is_before_after =
  QCheck.Test.make ~name:"devices_changed = before/after comparison" ~count:2000
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let m, ds = random_effect_machine (Sep_util.Prng.create seed) in
      let step_agrees () =
        let before = device_snapshot m in
        ignore (Machine.step_user m);
        List.for_all
          (fun ds -> Machine.devices_changed m ds = changed_since m before ds)
          [ ds; [| 0; 1; 2; 3; 4 |] ]
      in
      (* a few steps in a row, so that later ones start from touched devices *)
      List.for_all (fun _ -> step_agrees ()) [ 1; 2; 3; 4 ])

(* [machine_with]'s slots: 0 = Rx, 1 = Tx, 2 = Xform. [effect] sets up the
   devices and registers, runs one instruction from [pc] and answers
   [devices_changed] for the slot set [ds]; it checks the answer against
   the before/after comparison on the way. *)
let effect ?(ds = [| 0; 1; 2 |]) ~pc ~regs ~devs program =
  let m = machine_with program in
  List.iter (fun (r, v) -> Machine.set_reg m r v) ((6, Machine.device_space) :: regs);
  List.iter (fun (d, data, status) -> Machine.set_device_regs m d ~data ~status) devs;
  Machine.set_reg m Isa.pc_reg pc;
  let before = device_snapshot m in
  (match Machine.step_user m with
  | Machine.Stepped -> ()
  | _ -> Alcotest.fail "expected the instruction to execute");
  let changed = Machine.devices_changed m ds in
  Alcotest.(check bool) "agrees with the snapshot" (changed_since m before ds) changed;
  changed

let test_effect_same_value_write () =
  let store = [ Isa.Instr (Isa.Store (0, 6, 2)) ] in
  Alcotest.(check bool) "same-value Tx write: no effect" false
    (effect ~pc:0 ~regs:[ (0, 0x55) ] ~devs:[ (1, 0x55, 1) ] store);
  Alcotest.(check bool) "new value: effect" true
    (effect ~pc:0 ~regs:[ (0, 0x56) ] ~devs:[ (1, 0x55, 1) ] store)

let test_effect_idle_rx_read () =
  let load = [ Isa.Instr (Isa.Load (1, 6, 0)) ] in
  Alcotest.(check bool) "Rx read with status 0: no effect" false
    (effect ~pc:0 ~regs:[] ~devs:[ (0, 0x7b, 0) ] load);
  Alcotest.(check bool) "Rx read consuming a word: effect" true
    (effect ~pc:0 ~regs:[] ~devs:[ (0, 0x7b, 1) ] load)

(* Fetching from the Rx data register consumes its word; the fetched
   instruction then sets the status back. Two touches, no net change. *)
let test_effect_touches_cancel () =
  let restore = Isa.encode (Isa.Store (0, 6, 1)) in
  Alcotest.(check bool) "fetch + restoring store: no effect" false
    (effect ~pc:Machine.device_space ~regs:[ (0, 1) ] ~devs:[ (0, restore, 1) ] [])

(* The fetch touches the Tx device without changing it; the fetched store
   changes the transform device: the second touch counts too. *)
let test_effect_second_touch () =
  let store = Isa.encode (Isa.Store (0, 6, 4)) in
  Alcotest.(check bool) "change on the second touch" true
    (effect ~pc:(Machine.device_space + 2) ~regs:[ (0, 9) ] ~devs:[ (1, store, 0) ] [])

(* A device the queried slots do not name (a mis-programmed MMU reaching
   another regime's device) is no effect for them. *)
let test_effect_outside_slots () =
  let store = [ Isa.Instr (Isa.Store (0, 6, 4)) ] in
  Alcotest.(check bool) "outside the slots: no effect" false
    (effect ~ds:[| 0; 1 |] ~pc:0 ~regs:[ (0, 9) ] ~devs:[] store);
  Alcotest.(check bool) "inside the slots: effect" true
    (effect ~ds:[| 2 |] ~pc:0 ~regs:[ (0, 9) ] ~devs:[] store)

let () =
  Alcotest.run "hw"
    [
      ( "word",
        [
          Alcotest.test_case "wrap" `Quick test_word_wrap;
          Alcotest.test_case "signed" `Quick test_word_signed;
          Alcotest.test_case "flags" `Quick test_word_flags;
          qtest word_ops_stay_in_range;
        ] );
      ( "isa",
        [
          qtest codec_roundtrip;
          qtest decode_total;
          Alcotest.test_case "encode rejects bad fields" `Quick test_encode_rejects_bad_fields;
          Alcotest.test_case "assembler labels" `Quick test_assembler_labels;
          Alcotest.test_case "assembler errors" `Quick test_assembler_errors;
          Alcotest.test_case "assembler data words" `Quick test_assembler_data_words;
        ] );
      ( "machine",
        [
          Alcotest.test_case "alu" `Quick test_machine_alu;
          Alcotest.test_case "flags and branch" `Quick test_machine_flags_and_branch;
          Alcotest.test_case "memory" `Quick test_machine_memory;
          Alcotest.test_case "mmu violation" `Quick test_machine_mmu_violation;
          Alcotest.test_case "illegal instruction" `Quick test_machine_illegal;
          Alcotest.test_case "trap and halt" `Quick test_machine_trap_and_halt;
          Alcotest.test_case "rx device" `Quick test_machine_rx_device;
          Alcotest.test_case "tx device" `Quick test_machine_tx_device;
          Alcotest.test_case "xform device" `Quick test_machine_xform_device;
          Alcotest.test_case "device violation" `Quick test_machine_device_violation;
          Alcotest.test_case "copy and equality" `Quick test_machine_copy_equal;
          Alcotest.test_case "hash sees the whole state" `Quick test_machine_hash_sees_whole_state;
          Alcotest.test_case "equal sees every flip" `Quick test_machine_equal_sees_every_flip;
          qtest equal_agrees_with_reference;
          Alcotest.test_case "instruction count not state" `Quick test_machine_instruction_count_not_state;
          Alcotest.test_case "slot on a machine without devices" `Quick test_machine_no_devices_slot_faults;
          Alcotest.test_case "shrunk slot maps are canonical" `Quick test_machine_shrunk_slots_canonical;
          Alcotest.test_case "set_mmu rejects a bad slot" `Quick test_machine_set_mmu_rejects_bad_slot;
        ] );
      ( "device effect",
        [
          qtest devices_changed_is_before_after;
          Alcotest.test_case "same-value write" `Quick test_effect_same_value_write;
          Alcotest.test_case "idle rx read" `Quick test_effect_idle_rx_read;
          Alcotest.test_case "touches cancel" `Quick test_effect_touches_cancel;
          Alcotest.test_case "second touch" `Quick test_effect_second_touch;
          Alcotest.test_case "outside the slots" `Quick test_effect_outside_slots;
        ] );
    ]
