(* Tests for Proof of Separability: the correct kernel verifies, every
   mutant is caught by its predicted condition, wire-cutting behaves as
   the paper argues, and the randomized checker agrees with the
   exhaustive one. *)

module Scenarios = Sep_core.Scenarios
module Sue = Sep_core.Sue
module Separability = Sep_core.Separability
module Mutants = Sep_core.Mutants
module Randomized = Sep_core.Randomized
module Config = Sep_core.Config

let exhaustive ?bugs (inst : Scenarios.instance) =
  let sys = Sue.to_system ?bugs ~inputs:inst.alphabet inst.cfg in
  Separability.check sys

(* MD5 of [Json.to_string (Separability.report_to_json r)] for every
   exhaustive check of a catalogue scenario below, on both kernels, clean
   and with each seeded bug. Failure details print whole states, so these
   pin which state represents each abstraction bucket and the order of
   the checks, not only the counts. *)
let report_digests =
  [
    ("microcode pipeline clean", "562c0a548442206461f19c419e09495e");
    ("microcode interrupt clean", "a3337c772063348ca45b2a9b4b61e87b");
    ("microcode snfe-micro clean", "1f72d6fc0f0cbedcdccfe376ff349ab5");
    ("microcode pipeline forget-register-save", "893ca239d5a57ee2b3ae7be18df62547");
    ("microcode pipeline partition-hole", "badde51f80c24fb05840d042c687f794");
    ("microcode interrupt misroute-interrupt", "3f553b765123fbaf8eff3ca73066544a");
    ("microcode interrupt misroute-device-input", "a9d79952f6a7c5ef7162d7391a3933a7");
    ("microcode pipeline output-leak", "d2f1e4dd9c5327bd6ef329dde0ce3e1e");
    ("microcode pipeline schedule-on-foreign-state", "91db2f935f1f8209460f42dcc0b31a6b");
    ("microcode pipeline uncut-channel", "c3e155a39046f20b4666e0ff2b6879fc");
    ("microcode pipeline input-crosstalk", "dce80950d429e66293bea7bc42a1ade7");
    ("assembly pipeline clean", "6fb750009de4c9295b7860a79e49fa93");
    ("assembly interrupt clean", "7d4e52eab63cbbbabf93837448fac0de");
    ("assembly snfe-micro clean", "b60977d6bd193d5951cd42e4729f8270");
    ("assembly pipeline forget-register-save", "ef7ecb8408711a9425d6fff5025a9365");
    ("assembly pipeline partition-hole", "7da80456f6f2de3759bdcd2535772455");
    ("assembly interrupt misroute-interrupt", "a3770cb3d0e5d898495d3d91145aa7c7");
    ("assembly interrupt misroute-device-input", "64a169ab24b794c692df7c8be21e8d67");
    ("assembly pipeline output-leak", "8d385b19a23b29b214cd6ca373064655");
    ("assembly pipeline schedule-on-foreign-state", "75a299516d77b57a7af76984229eb43d");
    ("assembly pipeline uncut-channel", "cfa6a07301f27ed9b63e2638e30f262c");
    ("assembly pipeline input-crosstalk", "f8ffa608fe6eae307e7db95f21e6507c");
  ]

let report_digest r =
  Digest.to_hex (Digest.string (Sep_util.Json.to_string (Separability.report_to_json r)))

let config_key ?bug impl (inst : Scenarios.instance) =
  Fmt.str "%a %s %s" Sue.pp_impl impl inst.label
    (match bug with None -> "clean" | Some b -> Fmt.str "%a" Sue.pp_bug b)

(* The sampled path over the whole reachable set must give the exhaustive
   report: [check_states] and [check] share one condition core, which
   sees a sample and an explored graph alike. *)
let check_sampled_agrees ?bug ?max_failures impl (inst : Scenarios.instance) r =
  let bugs = Option.to_list bug in
  let sys = Sue.to_system ~bugs ~impl ~inputs:inst.alphabet inst.cfg in
  let sampled = Separability.check_states ?max_failures sys (Sep_model.System.reachable sys) in
  Alcotest.(check string)
    (config_key ?bug impl inst ^ ": check_states over the reachable set")
    (report_digest r) (report_digest sampled)

let check_digest ?bug ?max_failures impl (inst : Scenarios.instance) r =
  let key = config_key ?bug impl inst in
  Alcotest.(check string) (key ^ " report digest") (List.assoc key report_digests) (report_digest r);
  check_sampled_agrees ?bug ?max_failures impl inst r

(* The same digests for the checker's other entry points: the randomized
   check (seed 99, default parameters) of three scenarios, clean and with
   each catalogue bug on its scenario, under both kernels; the sampled
   and pairwise reports of the ablation's sample; and exhaustive checks
   outside the catalogue. *)
let entry_digests =
  [
    ("randomized microcode pipeline forget-register-save", "f66db19c9dc1c7be01649d1ad5f31c3c");
    ("randomized microcode pipeline partition-hole", "507ddfd7c13f88a18f42cd79dc1da943");
    ("randomized microcode interrupt misroute-interrupt", "a21ffedc1c4780ec7f95557e4f17f146");
    ("randomized microcode interrupt misroute-device-input", "2bdaedf919f0c2f8eab39c12c2d127b5");
    ("randomized microcode pipeline output-leak", "78640c88ad351e70215e67ad87dab4bf");
    ("randomized microcode pipeline schedule-on-foreign-state", "5fe4e2fffd6ec3686100d6d12e5f0a2d");
    ("randomized microcode pipeline uncut-channel", "c7c90a0fac0d4e27666ec0f36e62f522");
    ("randomized microcode pipeline input-crosstalk", "4055b1f2eb17f3529a7be864d600115a");
    ("randomized microcode interrupt clean", "2c61ccbeeb67170811931f45de1a8582");
    ("randomized microcode snfe-micro clean", "6b8033936208bbea093fad6c56fe3bd7");
    ("randomized microcode pipeline clean", "10929fb6bdd77631b74a6345a34514da");
    ("randomized assembly pipeline clean", "10929fb6bdd77631b74a6345a34514da");
    ("randomized assembly interrupt clean", "2c61ccbeeb67170811931f45de1a8582");
    ("randomized assembly snfe-micro clean", "6b8033936208bbea093fad6c56fe3bd7");
    ("randomized assembly pipeline forget-register-save", "73ac59819b27f52ea4e8b30261b01919");
    ("randomized assembly pipeline partition-hole", "4ace68fdb385aee4ed21910ab67913ee");
    ("randomized assembly interrupt misroute-interrupt", "20a2659851984b340ca7d77077320184");
    ("randomized assembly interrupt misroute-device-input", "5e015370e7726da7239e9b075ebfb0ab");
    ("randomized assembly pipeline output-leak", "f98cf36535450d066633b78cad8fffd3");
    ("randomized assembly pipeline schedule-on-foreign-state", "180d8048d3faa7520eddae62e1a72203");
    ("randomized assembly pipeline uncut-channel", "89a933cf61886258d9b1dafecaf9828c");
    ("randomized assembly pipeline input-crosstalk", "3a047c74bf43862fb65c7e3c651efc33");
    ("sampled pipeline clean", "37fb6844fbe247af5da9afaa90cc3aa0");
    ("pairwise pipeline clean", "f0e1ce570641c4c3891b981f6c22d06b");
    ("sampled pipeline output-leak", "6de9fefebfc5fcf268373f62d060e823");
    ("pairwise pipeline output-leak", "12e532f7026708d5a53f5e8264fb4d26");
    ("sampled pipeline input-crosstalk", "1211dbb14ead9598a58369cd6cbd4bb6");
    ("pairwise pipeline input-crosstalk", "ce4aca6d74de3e3e6d710dcc623810d2");
    ("exhaustive microcode pipeline uncut strict", "fcde1005b451c029aa25974e4303e00d");
    ("exhaustive microcode pipeline uncut sanctioned", "f294badc065f69061acf071699efc067");
    ("exhaustive microcode preemptive", "a80a71be399360c5027798c2b8dc382e");
    ("exhaustive microcode scaled-2x4b", "8547440b2a3852a90889b1e75e942bff");
    ("exhaustive microcode scaled-3x3b", "d457a5d2ffdf2f671f44580d1d44059c");
  ]

let check_entry key r =
  Alcotest.(check string) (key ^ " report digest") (List.assoc key entry_digests) (report_digest r)

let randomized_key ?bug impl inst = "randomized " ^ config_key ?bug impl inst

(* E1: the six conditions hold exhaustively for the correct kernel. *)
let test_correct_kernel_verifies (inst : Scenarios.instance) () =
  let r = exhaustive inst in
  check_digest Sue.Microcode inst r;
  Alcotest.(check bool)
    (Fmt.str "%s verified (%d states)" inst.label r.Separability.states)
    true (Separability.verified r);
  Alcotest.(check bool) "did real work" true (r.Separability.checks > 1000)

(* E4: each seeded bug is caught, and by the predicted condition. *)
let test_mutant (e : Mutants.expectation) () =
  let r = Mutants.run e in
  check_digest ~bug:e.bug Sue.Microcode e.scenario r;
  Alcotest.(check bool) "kernel bug detected" false (Separability.verified r);
  Alcotest.(check bool)
    (Fmt.str "condition %d among %s" e.primary
       (String.concat "," (List.map string_of_int (Separability.failing_conditions r))))
    true (Mutants.detected e r)

(* E5: the uncut system is not separable — both channel ends flag it. *)
let test_uncut_fails () =
  let inst = Scenarios.pipeline in
  let sys = Sue.to_system ~inputs:inst.alphabet (Config.cut_none inst.cfg) in
  let r = Separability.check sys in
  check_entry "exhaustive microcode pipeline uncut strict" r;
  Alcotest.(check bool) "uncut system rejected" false (Separability.verified r);
  let conds = Separability.failing_conditions r in
  Alcotest.(check bool) "the shared buffer shows up as interference" true (List.mem 2 conds)

(* Condition 2's connected-system weakening: with [sanction_channels] the
   uncut pipeline verifies, because every interference the checker sees is
   confined to the declared channel's contents. *)
let test_sanctioned_uncut_verifies () =
  let inst = Scenarios.pipeline in
  let sys =
    Sue.to_system ~sanction_channels:true ~inputs:inst.alphabet (Config.cut_none inst.cfg)
  in
  let r = Separability.check sys in
  check_entry "exhaustive microcode pipeline uncut sanctioned" r;
  Alcotest.(check bool)
    (Fmt.str "sanctioned uncut pipeline verified (%d states)" r.Separability.states)
    true (Separability.verified r)

(* The sanction covers interference in both directions across an uncut
   ring: the sender perturbs the receiver's view (data arrives) and the
   receiver perturbs the sender's (capacity frees up). Two opposed uncut
   channels exercise both at once. *)
let test_sanctioned_both_directions () =
  let module Isa = Sep_hw.Isa in
  let i x = Isa.Instr x in
  let prog mine other =
    [
      i (Isa.Loadi (0, mine));
      i (Isa.Loadi (1, 40 + mine));
      i (Isa.Trap 1);
      i (Isa.Loadi (0, other));
      i (Isa.Trap 2);
      i (Isa.Trap 0);
      i Isa.Halt;
    ]
  in
  let module Colour = Sep_model.Colour in
  let regime colour program = { Config.colour; part_size = 16; program; devices = [] } in
  let cfg =
    Config.make
      ~regimes:[ regime Colour.red (prog 0 1); regime Colour.black (prog 1 0) ]
      ~channels:[ (Colour.red, Colour.black, 1); (Colour.black, Colour.red, 1) ]
      ()
  in
  let strict = Separability.check (Sue.to_system ~inputs:[ [] ] cfg) in
  Alcotest.(check bool) "strict reading flags both uncut rings" false
    (Separability.verified strict);
  Alcotest.(check bool) "as condition 2" true
    (List.mem 2 (Separability.failing_conditions strict));
  let sanctioned =
    Separability.check (Sue.to_system ~sanction_channels:true ~inputs:[ [] ] cfg)
  in
  Alcotest.(check bool) "sanction accepts interference both ways" true
    (Separability.verified sanctioned)

(* The sanction is narrow: interference that is not confined to declared
   channel contents — here a register smuggled across a context switch —
   is still rejected. *)
let test_sanction_rejects_noise_outside_channels () =
  let inst = Scenarios.pipeline in
  let sys =
    Sue.to_system ~bugs:[ Sue.Partition_hole ] ~sanction_channels:true ~inputs:inst.alphabet
      (Config.cut_none inst.cfg)
  in
  let r = Separability.check sys in
  Alcotest.(check bool) "partition hole not sanctioned" false (Separability.verified r)

(* On a fully cut configuration the sanction never fires: both readings
   coincide, so turning it on cannot mask a genuine violation there. *)
let test_sanction_noop_when_cut () =
  let inst = Scenarios.pipeline in
  let sys =
    Sue.to_system ~sanction_channels:true ~inputs:inst.alphabet (Config.cut_all inst.cfg)
  in
  Alcotest.(check bool) "cut + sanction verifies" true
    (Separability.verified (Separability.check sys));
  let buggy =
    Sue.to_system ~bugs:[ Sue.Output_leak ] ~sanction_channels:true ~inputs:inst.alphabet
      (Config.cut_all inst.cfg)
  in
  Alcotest.(check bool) "cut + sanction still catches a leak" false
    (Separability.verified (Separability.check buggy))

(* Pin the default: omitting the flag is the strict reading (E5). *)
let test_sanction_off_by_default () =
  let inst = Scenarios.pipeline in
  let implicit =
    Separability.check (Sue.to_system ~inputs:inst.alphabet (Config.cut_none inst.cfg))
  in
  let explicit =
    Separability.check
      (Sue.to_system ~sanction_channels:false ~inputs:inst.alphabet (Config.cut_none inst.cfg))
  in
  Alcotest.(check bool) "implicit default is strict" false (Separability.verified implicit);
  Alcotest.(check (list int)) "explicit false agrees"
    (Separability.failing_conditions implicit)
    (Separability.failing_conditions explicit)

let test_cut_verifies () =
  (* cut_all of an already-cut config is idempotent and verified *)
  let inst = Scenarios.pipeline in
  let sys = Sue.to_system ~inputs:inst.alphabet (Config.cut_all inst.cfg) in
  Alcotest.(check bool) "cut system verified" true (Separability.verified (Separability.check sys))

let test_report_counts () =
  let r = exhaustive Scenarios.interrupt in
  Alcotest.(check bool) "states positive" true (r.Separability.states > 100);
  Alcotest.(check (list int)) "no failing conditions" [] (Separability.failing_conditions r)

let test_max_failures_caps () =
  let inst = Scenarios.pipeline in
  let sys = Sue.to_system ~bugs:[ Sue.Partition_hole ] ~inputs:inst.alphabet inst.cfg in
  let r = Separability.check ~max_failures:3 sys in
  Alcotest.(check int) "failure cap respected" 3 (List.length r.Separability.failures)

let test_state_limit () =
  let inst = Scenarios.pipeline in
  let sys = Sue.to_system ~inputs:inst.alphabet inst.cfg in
  Alcotest.check_raises "limit enforced" (Failure "System.reachable: state limit exceeded")
    (fun () -> ignore (Separability.check ~state_limit:50 sys))

(* E10: randomized checking on the same instances. *)
let test_randomized_correct () =
  let inst = Scenarios.pipeline in
  let r = Randomized.check ~seed:99 ~inputs:inst.alphabet inst.cfg in
  check_entry (randomized_key Sue.Microcode inst) r;
  Alcotest.(check bool) "randomized verifies correct kernel" true (Separability.verified r)

let test_randomized_mutants () =
  List.iter
    (fun (e : Mutants.expectation) ->
      let r =
        Randomized.check ~bugs:[ e.bug ] ~seed:99 ~inputs:e.scenario.Scenarios.alphabet
          e.scenario.Scenarios.cfg
      in
      check_entry (randomized_key ~bug:e.bug Sue.Microcode e.scenario) r;
      Alcotest.(check bool)
        (Fmt.str "randomized catches %a" Sue.pp_bug e.bug)
        true (Mutants.detected e r))
    Mutants.catalogue

(* The randomized reports the two tests above do not pin: the other clean
   scenarios, and every configuration on the machine-code kernel. *)
let test_randomized_digests () =
  let randomized ?bug impl (inst : Scenarios.instance) =
    let r = Randomized.check ~bugs:(Option.to_list bug) ~impl ~seed:99 ~inputs:inst.alphabet inst.cfg in
    check_entry (randomized_key ?bug impl inst) r
  in
  List.iter (randomized Sue.Microcode) [ Scenarios.interrupt; Scenarios.snfe_micro ];
  List.iter (randomized Sue.Assembly) [ Scenarios.pipeline; Scenarios.interrupt; Scenarios.snfe_micro ];
  List.iter (fun (e : Mutants.expectation) -> randomized ~bug:e.bug Sue.Assembly e.scenario) Mutants.catalogue

let test_pairwise_agrees_with_bucketed () =
  let inst = Scenarios.pipeline in
  let params = { Randomized.walks = 3; walk_len = 32; scrambles = 1 } in
  let check_both bugs =
    let states = Randomized.sample_states ~bugs ~params ~seed:5 ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
    let sys = Sue.to_system ~bugs ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
    let fast = Separability.check_states sys states in
    let slow = Separability.check_states_pairwise sys states in
    let bug = match bugs with [] -> "clean" | b :: _ -> Fmt.str "%a" Sue.pp_bug b in
    check_entry ("sampled pipeline " ^ bug) fast;
    check_entry ("pairwise pipeline " ^ bug) slow;
    Alcotest.(check bool)
      (Fmt.str "verdicts agree (%d bugs)" (List.length bugs))
      (Separability.verified fast) (Separability.verified slow);
    Alcotest.(check (list int)) "failing conditions agree"
      (Separability.failing_conditions fast)
      (Separability.failing_conditions slow)
  in
  check_both [];
  check_both [ Sue.Output_leak ];
  check_both [ Sue.Input_crosstalk ]

let test_randomized_scaling_instance () =
  (* The scaled instance family used by E10 is itself verified. *)
  let inst = Scenarios.scaled ~regimes:3 ~counter_bits:2 in
  let r = Randomized.check ~seed:3 ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
  Alcotest.(check bool) "scaled instance verified" true (Separability.verified r)

(* Exhaustive reports outside the catalogue: preemption, and two scaled
   instances with three regimes or a longer counter. *)
let test_exhaustive_digests () =
  let exhaustive_key label (inst : Scenarios.instance) =
    check_entry ("exhaustive microcode " ^ label) (exhaustive inst)
  in
  exhaustive_key "preemptive" Scenarios.preemptive;
  exhaustive_key "scaled-2x4b" (Scenarios.scaled ~regimes:2 ~counter_bits:4);
  exhaustive_key "scaled-3x3b" (Scenarios.scaled ~regimes:3 ~counter_bits:3)

let test_scaled_exhaustive () =
  let inst = Scenarios.scaled ~regimes:2 ~counter_bits:2 in
  let sys = Sue.to_system ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
  let r = Separability.check sys in
  Alcotest.(check bool) "scaled exhaustive verified" true (Separability.verified r)

(* E13: the kernel as machine code — implementation-level verification. *)
let test_assembly_kernel_verifies () =
  List.iter
    (fun (inst : Scenarios.instance) ->
      let sys = Sue.to_system ~impl:Sue.Assembly ~inputs:inst.alphabet inst.cfg in
      let r = Separability.check sys in
      check_digest Sue.Assembly inst r;
      Alcotest.(check bool)
        (Fmt.str "machine-code kernel verified on %s" inst.label)
        true (Separability.verified r))
    [ Scenarios.interrupt; Scenarios.snfe_micro ]

let test_assembly_pipeline_verifies () =
  let inst = Scenarios.pipeline in
  let sys = Sue.to_system ~impl:Sue.Assembly ~inputs:inst.alphabet inst.cfg in
  let r = Separability.check sys in
  check_digest Sue.Assembly inst r;
  Alcotest.(check bool) "machine-code kernel verified on pipeline" true (Separability.verified r)

let test_assembly_randomized () =
  let inst = Scenarios.pipeline in
  let clean =
    Randomized.check ~impl:Sue.Assembly ~seed:77 ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg
  in
  Alcotest.(check bool) "randomized PoS verifies the machine-code kernel" true
    (Separability.verified clean);
  let buggy =
    Randomized.check ~impl:Sue.Assembly ~bugs:[ Sue.Forget_register_save ] ~seed:77
      ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg
  in
  Alcotest.(check bool) "and catches a bug compiled into the assembly" true
    (List.mem 1 (Separability.failing_conditions buggy))

let test_assembly_mutants_caught () =
  List.iter
    (fun (e : Mutants.expectation) ->
      let r =
        Separability.check ~max_failures:3
          (Sue.to_system ~impl:Sue.Assembly ~bugs:[ e.bug ]
             ~inputs:e.scenario.Scenarios.alphabet e.scenario.Scenarios.cfg)
      in
      check_digest ~bug:e.bug ~max_failures:3 Sue.Assembly e.scenario r;
      Alcotest.(check bool)
        (Fmt.str "assembly kernel: %a -> condition %d" Sue.pp_bug e.bug e.primary)
        true (Mutants.detected e r))
    Mutants.catalogue

(* -- whole-trace simulation ----------------------------------------------------- *)

(* The commutative diagrams compose: replaying each regime's private
   machine (Abstract_regime) along the schedule observed on the shared
   machine must reproduce the regime's abstraction of the shared run at
   every step. This is the end-to-end "each regime runs on its own
   machine" statement, checked over whole random executions. *)
let simulation_holds ?(impl = Sue.Microcode) (inst : Scenarios.instance) seed steps =
  let module AR = Sep_core.Abstract_regime in
  let module Prng = Sep_util.Prng in
  let rng = Prng.create seed in
  let alphabet = Array.of_list inst.Scenarios.alphabet in
  let t = Sue.build ~impl inst.Scenarios.cfg in
  let colours = Sep_core.Config.colours inst.Scenarios.cfg in
  let abs = ref (List.map (fun c -> (c, Sue.phi t c)) colours) in
  let ok = ref true in
  for _ = 1 to steps do
    let input = Sep_util.Prng.choose rng alphabet in
    (* the private machines see only their own arrivals, by slot *)
    abs :=
      List.map
        (fun (c, a) ->
          let mine =
            List.filter_map
              (fun (d, w) ->
                let owner, slot = Sue.device_slot t d in
                if Sep_model.Colour.equal owner c then Some (slot, w) else None)
              input
          in
          (c, AR.input_stage a mine))
        !abs;
    Sue.deliver_inputs t input;
    (* the regime holding the processor advances its private machine *)
    let active = Sue.current_colour t in
    let active_runnable = Sue.regime_status t active = AR.Running in
    Sue.exec_op t;
    abs :=
      List.map
        (fun (c, a) ->
          if Sep_model.Colour.equal c active && active_runnable then (c, AR.step a) else (c, a))
        !abs;
    List.iter
      (fun (c, a) -> if not (AR.equal a (Sue.phi t c)) then ok := false)
      !abs
  done;
  !ok

let trace_simulation ?impl ?(tag = "") inst =
  QCheck.Test.make
    ~name:(Fmt.str "private machines replay the %s%s run" inst.Scenarios.label tag)
    ~count:25
    QCheck.small_int
    (fun seed -> simulation_holds ?impl inst seed 120)

(* -- random kernel configurations --------------------------------------------- *)

(* The separability argument is about the kernel, not about the programs it
   hosts: arbitrary regime code (including code that faults, halts, traps
   garbage or loops) must still be verifiable. Generate random programs and
   check them with randomized PoS. *)

module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine
module Prng = Sep_util.Prng
module Colour = Sep_model.Colour

let random_instr rng =
  let r () = Prng.int rng 8 in
  match Prng.int rng 13 with
  | 0 -> Isa.Nop
  | 1 -> Isa.Halt
  | 2 -> Isa.Trap (Prng.int rng 4)
  | 3 -> Isa.Loadi (r (), Prng.int rng 256)
  | 4 -> Isa.Load (r (), r (), Prng.int rng 8)
  | 5 -> Isa.Store (r (), r (), Prng.int rng 8)
  | 6 -> Isa.Mov (r (), r ())
  | 7 -> Isa.Add (r (), r ())
  | 8 -> Isa.Xor (r (), r ())
  | 9 -> Isa.Cmp (r (), r ())
  | 10 -> Isa.Shl (r (), Prng.int rng 16)
  | 11 -> Isa.Beq (Prng.int_in rng (-3) 3)
  | _ -> Isa.Br (Prng.int_in rng (-3) 3)

let random_config seed =
  let rng = Prng.create seed in
  let program () = List.init 12 (fun _ -> Sep_hw.Isa.Instr (random_instr rng)) in
  Config.make
    ~regimes:
      [
        {
          Config.colour = Colour.red;
          part_size = 16;
          program = program ();
          devices = [ Machine.Rx; Machine.Tx ];
        };
        {
          Config.colour = Colour.black;
          part_size = 16;
          program = program ();
          devices = [ Machine.Rx ];
        };
      ]
    ~channels:[ (Colour.red, Colour.black, 1) ]
    ()
  |> Config.cut_all

let random_kernels_verify =
  QCheck.Test.make ~name:"random regime programs pass randomized PoS" ~count:15
    QCheck.small_int
    (fun seed ->
      let cfg = random_config seed in
      let r =
        Randomized.check
          ~params:{ Randomized.walks = 4; walk_len = 48; scrambles = 2 }
          ~seed:(seed + 1) ~inputs:[ []; [ (0, 1) ]; [ (2, 1) ] ] cfg
      in
      Separability.verified r)

let random_programs_on_machine_code_kernel =
  QCheck.Test.make ~name:"random regime programs pass randomized PoS on the machine-code kernel"
    ~count:10 QCheck.small_int
    (fun seed ->
      let cfg = random_config seed in
      let r =
        Randomized.check ~impl:Sue.Assembly
          ~params:{ Randomized.walks = 3; walk_len = 40; scrambles = 2 }
          ~seed:(seed + 1) ~inputs:[ []; [ (0, 1) ]; [ (2, 1) ] ] cfg
      in
      Separability.verified r)

let random_kernels_catch_bugs =
  QCheck.Test.make ~name:"random programs + partition-hole bug is still caught" ~count:10
    QCheck.small_int
    (fun seed ->
      (* the hole manifests whenever a context switch occurs with nonzero
         R0; random spin programs trap often, so detection is expected *)
      let cfg = random_config seed in
      let r =
        Randomized.check ~bugs:[ Sue.Partition_hole ]
          ~params:{ Randomized.walks = 4; walk_len = 48; scrambles = 2 }
          ~seed:(seed + 1) ~inputs:[ []; [ (0, 1 + (seed mod 7)) ]; [ (2, 1) ] ] cfg
      in
      (* either caught, or this particular program pair never switched with
         distinguishable state — accept a clean report only if the correct
         kernel on the same walk is also clean (sanity) *)
      (not (Separability.verified r))
      ||
      let clean =
        Randomized.check
          ~params:{ Randomized.walks = 4; walk_len = 48; scrambles = 2 }
          ~seed:(seed + 1) ~inputs:[ []; [ (0, 1 + (seed mod 7)) ]; [ (2, 1) ] ] cfg
      in
      Separability.verified clean)

let random_kernels_exhaustive =
  (* the strongest form: whole reachable-space checking of random programs.
     Some random programs explore enormous spaces (free-running counters);
     those abort on the state limit, which is not a verdict. None may FAIL. *)
  QCheck.Test.make ~name:"random regime programs pass exhaustive PoS (or exceed the limit)"
    ~count:8 QCheck.small_int
    (fun seed ->
      let cfg = random_config seed in
      let sys = Sue.to_system ~inputs:[ []; [ (0, 1) ]; [ (2, 1) ] ] cfg in
      match Separability.check ~state_limit:120_000 sys with
      | report -> Separability.verified report
      | exception Failure _ -> true (* state limit: no verdict, not a failure *))

(* -- E11: black-box noninterference vs the six conditions -------------------- *)

let ni_check bugs =
  let inst = Scenarios.pipeline in
  let sys = Sue.to_system ~bugs ~inputs:inst.Scenarios.alphabet inst.Scenarios.cfg in
  let t = Sue.build ~bugs inst.Scenarios.cfg in
  Sep_core.Noninterference.check
    ~prng:(Sep_util.Prng.create 1981)
    ~trials:30 ~word_len:50
    ~splice:(Sep_core.Noninterference.sue_splice t)
    sys

let test_ni_correct_kernel_clean () =
  Alcotest.(check bool) "no interference observable" true
    (Sep_core.Noninterference.interference_free (ni_check []))

let test_ni_catches_output_leak () =
  Alcotest.(check bool) "output crosstalk diverges traces" false
    (Sep_core.Noninterference.interference_free (ni_check [ Sue.Output_leak ]))

let test_ni_misses_internal_flaws () =
  (* the gap the paper argues: these are state flaws PoS catches (see the
     mutant cases above) but finite I/O testing cannot see *)
  List.iter
    (fun bug ->
      Alcotest.(check bool)
        (Fmt.str "%a invisible to I/O testing" Sue.pp_bug bug)
        true
        (Sep_core.Noninterference.interference_free (ni_check [ bug ])))
    [ Sue.Forget_register_save; Sue.Partition_hole; Sue.Uncut_channel ]

let mutant_cases =
  List.map
    (fun (e : Mutants.expectation) ->
      Alcotest.test_case (Fmt.str "%a -> condition %d" Sue.pp_bug e.bug e.primary) `Slow
        (test_mutant e))
    Mutants.catalogue

let () =
  Alcotest.run "separability"
    [
      ( "correct kernels (E1)",
        [
          Alcotest.test_case "pipeline" `Slow (test_correct_kernel_verifies Scenarios.pipeline);
          Alcotest.test_case "interrupt" `Quick (test_correct_kernel_verifies Scenarios.interrupt);
          Alcotest.test_case "snfe-micro" `Quick (test_correct_kernel_verifies Scenarios.snfe_micro);
          Alcotest.test_case "scaled" `Quick test_scaled_exhaustive;
          Alcotest.test_case "report counts" `Quick test_report_counts;
          Alcotest.test_case "more exhaustive digests" `Quick test_exhaustive_digests;
        ] );
      ("mutants (E4)", mutant_cases);
      ( "wire-cutting (E5)",
        [
          Alcotest.test_case "uncut fails" `Slow test_uncut_fails;
          Alcotest.test_case "cut verifies" `Slow test_cut_verifies;
        ] );
      ( "sanctioned channels",
        [
          Alcotest.test_case "uncut verifies under sanction" `Slow test_sanctioned_uncut_verifies;
          Alcotest.test_case "both directions sanctioned" `Quick test_sanctioned_both_directions;
          Alcotest.test_case "noise outside channels rejected" `Slow
            test_sanction_rejects_noise_outside_channels;
          Alcotest.test_case "no-op on cut configs" `Slow test_sanction_noop_when_cut;
          Alcotest.test_case "off by default" `Slow test_sanction_off_by_default;
        ] );
      ( "checker mechanics",
        [
          Alcotest.test_case "max failures" `Quick test_max_failures_caps;
          Alcotest.test_case "state limit" `Quick test_state_limit;
        ] );
      ( "machine-code kernel (E13)",
        [
          Alcotest.test_case "small scenarios verify" `Quick test_assembly_kernel_verifies;
          Alcotest.test_case "pipeline verifies" `Slow test_assembly_pipeline_verifies;
          Alcotest.test_case "randomized checking" `Quick test_assembly_randomized;
          Alcotest.test_case "all mutants caught" `Slow test_assembly_mutants_caught;
        ] );
      ( "trace simulation",
        [
          QCheck_alcotest.to_alcotest (trace_simulation Scenarios.pipeline);
          QCheck_alcotest.to_alcotest (trace_simulation Scenarios.interrupt);
          QCheck_alcotest.to_alcotest (trace_simulation Scenarios.snfe_micro);
          QCheck_alcotest.to_alcotest (trace_simulation Scenarios.preemptive);
          QCheck_alcotest.to_alcotest
            (trace_simulation ~impl:Sue.Assembly ~tag:" (machine-code kernel)" Scenarios.pipeline);
        ] );
      ( "random configurations",
        [
          QCheck_alcotest.to_alcotest random_kernels_verify;
          QCheck_alcotest.to_alcotest random_programs_on_machine_code_kernel;
          QCheck_alcotest.to_alcotest random_kernels_exhaustive;
          QCheck_alcotest.to_alcotest random_kernels_catch_bugs;
        ] );
      ( "noninterference testing (E11)",
        [
          Alcotest.test_case "correct kernel clean" `Quick test_ni_correct_kernel_clean;
          Alcotest.test_case "catches output leak" `Quick test_ni_catches_output_leak;
          Alcotest.test_case "misses internal flaws" `Quick test_ni_misses_internal_flaws;
        ] );
      ( "randomized (E10)",
        [
          Alcotest.test_case "correct kernel" `Quick test_randomized_correct;
          Alcotest.test_case "all mutants" `Slow test_randomized_mutants;
          Alcotest.test_case "report digests" `Slow test_randomized_digests;
          Alcotest.test_case "pairwise ablation agrees" `Quick test_pairwise_agrees_with_bucketed;
          Alcotest.test_case "scaled instance" `Quick test_randomized_scaling_instance;
        ] );
    ]
