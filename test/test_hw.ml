(* Tests for the simulated hardware: words, ISA codec, assembler, machine
   semantics, MMU protection and devices. *)

module Word = Sep_hw.Word
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine

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
  Machine.device_input m 0 0x7b;
  Alcotest.(check (list int)) "irq raised" [ 0 ] (Machine.pending_irqs m);
  Machine.field_irq m 0;
  Alcotest.(check (list int)) "irq fielded" [] (Machine.pending_irqs m);
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
  Alcotest.(check (list (pair int int))) "tx pending" [ (1, 0x55) ] (Machine.device_outputs m);
  Alcotest.(check (list (pair int int))) "drained" [] (Machine.device_outputs m)

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

let test_machine_instruction_count_not_state () =
  let a = machine_with [ Isa.Instr Isa.Nop; Isa.Instr (Isa.Br (-2)) ] in
  let b = Machine.copy a in
  ignore (step_n a 2);
  (* a is back at pc=0 with flags untouched by Nop/Br; only the counter moved *)
  Alcotest.(check bool) "counter excluded from equality" true (Machine.equal a b);
  Alcotest.(check int) "counter advanced" 2 (Machine.instruction_count a)

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
          Alcotest.test_case "instruction count not state" `Quick test_machine_instruction_count_not_state;
        ] );
    ]
