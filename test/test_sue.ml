(* Tests for the machine-level separation kernel: layout, context
   switching, channels, faults, interrupts, abstraction functions. *)

module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module AR = Sep_core.Abstract_regime
module Prng = Sep_util.Prng

let qtest = QCheck_alcotest.to_alcotest

let regime colour part_size program devices = { Config.colour; part_size; program; devices }

let build ?bugs ?(channels = [ (Colour.red, Colour.black, 2) ]) ?(cut = false) red_prog black_prog
    ~red_devices ~black_devices () =
  let cfg =
    Config.make
      ~regimes:
        [ regime Colour.red 24 red_prog red_devices; regime Colour.black 24 black_prog black_devices ]
      ~channels ()
  in
  let cfg = if cut then Config.cut_all cfg else cfg in
  Sue.build ?bugs cfg

let run_steps t n = for _ = 1 to n do ignore (Sue.step t []) done

let spin = [ Isa.Label "spin"; Isa.Instr (Isa.Trap 0); Isa.Branch "spin" ]

let i x = Isa.Instr x

(* -- layout and construction ------------------------------------------------ *)

let test_kernel_words () =
  let t = build spin spin ~red_devices:[] ~black_devices:[] () in
  (* 2 header + 2 regimes * 12 + one channel of capacity 2: 2 areas * (2+2) *)
  Alcotest.(check int) "kernel layout size" (2 + 24 + 8) (Sue.kernel_words t)

let test_build_rejects_overflow () =
  let big = List.init 30 (fun _ -> i Isa.Nop) in
  Alcotest.check_raises "program too large"
    (Invalid_argument "Sue.build: program of RED overflows its partition") (fun () ->
      ignore (build big spin ~red_devices:[] ~black_devices:[] ()))

let test_build_rejects_bad_config () =
  let cfg =
    {
      Config.regimes = [ regime Colour.red 8 spin []; regime Colour.red 8 spin [] ];
      channels = [];
      quantum = None;
    }
  in
  Alcotest.check_raises "duplicate colours"
    (Invalid_argument "Sue.build: duplicate regime colour RED") (fun () ->
      ignore (Sue.build cfg))

let test_device_ownership () =
  let t =
    build spin spin ~red_devices:[ Machine.Rx; Machine.Tx ] ~black_devices:[ Machine.Rx ] ()
  in
  Alcotest.(check string) "dev 0" "RED" (Colour.name (Sue.device_owner t 0));
  Alcotest.(check string) "dev 1" "RED" (Colour.name (Sue.device_owner t 1));
  Alcotest.(check string) "dev 2" "BLACK" (Colour.name (Sue.device_owner t 2))

(* -- context switching ------------------------------------------------------- *)

let test_round_robin () =
  let t = build spin spin ~red_devices:[] ~black_devices:[] () in
  Alcotest.(check string) "red first" "RED" (Colour.name (Sue.current_colour t));
  ignore (Sue.step t []);
  (* RED executed Trap 0 and yielded *)
  Alcotest.(check string) "black next" "BLACK" (Colour.name (Sue.current_colour t));
  ignore (Sue.step t []);
  Alcotest.(check string) "back to red" "RED" (Colour.name (Sue.current_colour t))

let test_swap_preserves_context () =
  let red_prog =
    [
      i (Isa.Loadi (1, 11));
      i (Isa.Loadi (3, 7));
      i (Isa.Loadi (5, 0));  (* sets the Z flag *)
      i (Isa.Trap 0);
      i (Isa.Loadi (4, 0xaa));
      i Isa.Halt;
    ]
  in
  let black_prog = [ i (Isa.Loadi (1, 22)); i (Isa.Trap 0); i Isa.Halt ] in
  let t = build red_prog black_prog ~red_devices:[] ~black_devices:[] () in
  run_steps t 4;
  (* RED has yielded; its view must show the saved context unchanged *)
  let red = Sue.phi t Colour.red in
  Alcotest.(check int) "saved r1" 11 red.AR.regs.(1);
  Alcotest.(check int) "saved r3" 7 red.AR.regs.(3);
  Alcotest.(check bool) "saved z flag" true red.AR.flag_z;
  Alcotest.(check string) "black running" "BLACK" (Colour.name (Sue.current_colour t));
  run_steps t 3;
  (* BLACK yielded back; RED resumed exactly where it left off *)
  let red = Sue.phi t Colour.red in
  Alcotest.(check int) "resumed r4" 0xaa red.AR.regs.(4);
  Alcotest.(check int) "r1 survived the other regime" 11 red.AR.regs.(1);
  let black = Sue.phi t Colour.black in
  Alcotest.(check int) "black r1 is its own" 22 black.AR.regs.(1)

let test_swap_with_no_other_runnable () =
  let t =
    build [ i (Isa.Loadi (1, 5)); i (Isa.Trap 0); i (Isa.Loadi (2, 6)); i Isa.Halt ]
      [ i Isa.Halt ] ~red_devices:[] ~black_devices:[] ()
  in
  (* BLACK halts on its first quantum and never wakes: RED's SWAPs are no-ops *)
  run_steps t 8;
  let red = Sue.phi t Colour.red in
  Alcotest.(check int) "red kept running" 6 red.AR.regs.(2);
  Alcotest.(check bool) "black is waiting" true (Sue.regime_status t Colour.black = AR.Waiting)

(* -- channels ---------------------------------------------------------------- *)

let sender_prog = [ i (Isa.Loadi (0, 0)); i (Isa.Loadi (1, 42)); i (Isa.Trap 1); i (Isa.Trap 0); i Isa.Halt ]
let receiver_prog = [ i (Isa.Loadi (0, 0)); i (Isa.Trap 2); i Isa.Halt ]

let test_channel_roundtrip_uncut () =
  let t = build sender_prog receiver_prog ~red_devices:[] ~black_devices:[] () in
  run_steps t 10;
  let black = Sue.phi t Colour.black in
  Alcotest.(check int) "received word" 42 black.AR.regs.(1);
  Alcotest.(check int) "recv status ok" 1 black.AR.regs.(2)

let test_channel_cut_is_dry () =
  let t = build ~cut:true sender_prog receiver_prog ~red_devices:[] ~black_devices:[] () in
  run_steps t 10;
  let red = Sue.phi t Colour.red in
  let black = Sue.phi t Colour.black in
  Alcotest.(check int) "send end accepted it" 1 red.AR.regs.(2);
  Alcotest.(check (list int)) "send end holds the word" [ 42 ] red.AR.sends.(0).AR.ce_contents;
  Alcotest.(check int) "receiver got nothing" 0 black.AR.regs.(2);
  Alcotest.(check (list int)) "receive end empty" [] black.AR.recvs.(0).AR.ce_contents

let test_channel_capacity () =
  let red_prog =
    [
      i (Isa.Loadi (0, 0));
      i (Isa.Loadi (1, 1));
      i (Isa.Trap 1);
      i (Isa.Trap 1);
      i (Isa.Trap 1);  (* third send exceeds capacity 2 *)
      i Isa.Halt;
    ]
  in
  let t = build ~cut:true red_prog [ i Isa.Halt ] ~red_devices:[] ~black_devices:[] () in
  run_steps t 8;
  let red = Sue.phi t Colour.red in
  Alcotest.(check int) "send on full channel fails" 0 red.AR.regs.(2);
  Alcotest.(check (list int)) "buffer holds capacity" [ 1; 1 ] red.AR.sends.(0).AR.ce_contents

let test_channel_wrong_owner () =
  (* BLACK tries to send on a channel it only receives on *)
  let black_prog = [ i (Isa.Loadi (0, 0)); i (Isa.Loadi (1, 9)); i (Isa.Trap 1); i Isa.Halt ] in
  let t = build spin black_prog ~red_devices:[] ~black_devices:[] () in
  run_steps t 10;
  let black = Sue.phi t Colour.black in
  Alcotest.(check int) "not yours" 2 black.AR.regs.(2)

let test_channel_bad_id () =
  let red_prog = [ i (Isa.Loadi (0, 7)); i (Isa.Trap 1); i Isa.Halt ] in
  let t = build red_prog spin ~red_devices:[] ~black_devices:[] () in
  run_steps t 4;
  let red = Sue.phi t Colour.red in
  Alcotest.(check int) "unknown channel" 2 red.AR.regs.(2)

(* A flipped ring head word must not take RECV out of bounds: the pop
   repairs the head (mod capacity), audits exactly one
   [Channel_head_corrupt], and still delivers the buffered word. *)
let test_ring_head_corruption_repaired () =
  (* delay the receiver one quantum so the word is in flight when we
     corrupt the head *)
  let receiver = [ i (Isa.Trap 0); i (Isa.Loadi (0, 0)); i (Isa.Trap 2); i Isa.Halt ] in
  let t = build sender_prog receiver ~red_devices:[] ~black_devices:[] () in
  let send_area, _, cap = Option.get (Sue.channel_area t 0) in
  let m = Sue.machine t in
  let rec fill n =
    if n = 0 then Alcotest.fail "send never landed"
    else if Machine.read_phys m (send_area + 1) = 0 then begin
      ignore (Sue.step t []);
      fill (n - 1)
    end
  in
  fill 20;
  (* head := a multiple of cap beyond the ring: out of range, but congruent
     to the true head so the repair is lossless *)
  Machine.write_phys m send_area (3 * cap);
  run_steps t 10;
  let black = Sue.phi t Colour.black in
  Alcotest.(check int) "word still delivered" 42 black.AR.regs.(1);
  Alcotest.(check int) "recv status ok" 1 black.AR.regs.(2);
  let head = Machine.read_phys m send_area in
  Alcotest.(check bool) "head repaired in bounds" true (head >= 0 && head < cap);
  let corruptions =
    List.filter (function Sue.Channel_head_corrupt _ -> true | _ -> false) (Sue.drain_faults t)
  in
  (match corruptions with
  | [ Sue.Channel_head_corrupt addr ] ->
    Alcotest.(check int) "audit names the ring" send_area addr
  | faults -> Alcotest.failf "expected one channel audit, got %d" (List.length faults));
  Alcotest.(check bool) "audit counted" true (Sue.audit_count t >= 1)

let test_ring_head_corruption_empty_ring_ignored () =
  (* with the ring empty the pop never dereferences the head, so a corrupt
     head word on an empty ring is not (yet) an audit event *)
  let receiver = [ i (Isa.Loadi (0, 0)); i (Isa.Trap 2); i (Isa.Trap 0); i Isa.Halt ] in
  let t = build spin receiver ~red_devices:[] ~black_devices:[] () in
  let send_area, _, cap = Option.get (Sue.channel_area t 0) in
  Machine.write_phys (Sue.machine t) send_area (5 * cap);
  run_steps t 10;
  let black = Sue.phi t Colour.black in
  Alcotest.(check int) "recv found nothing" 0 black.AR.regs.(2);
  Alcotest.(check (list int)) "no audit for an undereferenced head" []
    (List.filter_map
       (function Sue.Channel_head_corrupt a -> Some a | _ -> None)
       (Sue.drain_faults t))

(* -- faults and parking ------------------------------------------------------- *)

let test_fault_parks () =
  (* load from beyond the partition *)
  let red_prog = [ i (Isa.Loadi (1, 60)); i (Isa.Load (0, 1, 0)); i (Isa.Loadi (2, 1)) ] in
  let t = build red_prog spin ~red_devices:[] ~black_devices:[] () in
  run_steps t 6;
  Alcotest.(check bool) "red parked" true (Sue.regime_status t Colour.red = AR.Parked);
  Alcotest.(check string) "black still runs" "BLACK" (Colour.name (Sue.current_colour t));
  let red = Sue.phi t Colour.red in
  Alcotest.(check int) "fault stopped execution" 0 red.AR.regs.(2)

let test_unknown_trap_parks () =
  let t = build [ i (Isa.Trap 9) ] spin ~red_devices:[] ~black_devices:[] () in
  run_steps t 3;
  Alcotest.(check bool) "parked" true (Sue.regime_status t Colour.red = AR.Parked)

(* -- interrupts and waiting ----------------------------------------------------- *)

let wait_consume =
  [
    i (Isa.Loadi (6, 1));
    i (Isa.Shl (6, 15));
    Isa.Label "loop";
    i Isa.Halt;
    i (Isa.Load (2, 6, 0));
    Isa.Branch "loop";
  ]

let test_wake_on_input () =
  let t = build wait_consume spin ~red_devices:[ Machine.Rx ] ~black_devices:[] () in
  run_steps t 4;
  Alcotest.(check bool) "red waiting" true (Sue.regime_status t Colour.red = AR.Waiting);
  ignore (Sue.step t [ (0, 0x5c) ]);
  Alcotest.(check bool) "red woken" true (Sue.regime_status t Colour.red = AR.Running);
  run_steps t 3;
  let red = Sue.phi t Colour.red in
  Alcotest.(check int) "consumed the word" 0x5c red.AR.regs.(2)

let test_wait_falls_through_with_pending_data () =
  let red_prog =
    [
      i (Isa.Loadi (6, 1));
      i (Isa.Shl (6, 15));
      i Isa.Halt;  (* data is already pending: must fall through *)
      i (Isa.Load (2, 6, 0));
      i Isa.Halt;
    ]
  in
  let t = build red_prog spin ~red_devices:[ Machine.Rx ] ~black_devices:[] () in
  ignore (Sue.step t [ (0, 0x77) ]);
  run_steps t 4;
  let red = Sue.phi t Colour.red in
  Alcotest.(check int) "halt did not lose the word" 0x77 red.AR.regs.(2)

let test_outputs_and_drain () =
  let red_prog =
    [
      i (Isa.Loadi (6, 1));
      i (Isa.Shl (6, 15));
      i (Isa.Loadi (0, 0x3c));
      i (Isa.Store (0, 6, 0));  (* Tx is slot 0 *)
      i Isa.Halt;
    ]
  in
  let t = build red_prog spin ~red_devices:[ Machine.Tx ] ~black_devices:[] () in
  let outs = Sue.run t ~steps:6 ~inputs:(fun _ -> []) in
  Alcotest.(check (list (list (pair int int)))) "word on the wire exactly once" [ [ (0, 0x3c) ] ] outs

(* -- abstraction ----------------------------------------------------------------- *)

let pipeline = Sep_core.Scenarios.pipeline

let test_phi_live_vs_saved () =
  let t = Sue.build pipeline.Sep_core.Scenarios.cfg in
  (* RED is current: phi reads live registers. *)
  run_steps t 1;
  let live = Sue.phi t Colour.red in
  Alcotest.(check int) "r6 set by first instruction" 1 live.AR.regs.(6)

let phi_scramble_preserves_own_view =
  QCheck.Test.make ~name:"phi c (scramble_others s c) = phi c s" ~count:60
    QCheck.(pair small_int (int_range 0 40))
    (fun (seed, steps) ->
      let rng = Prng.create seed in
      let t = Sue.build pipeline.Sep_core.Scenarios.cfg in
      let alphabet = Array.of_list pipeline.Sep_core.Scenarios.alphabet in
      for _ = 1 to steps do
        ignore (Sue.step t (Prng.choose rng alphabet))
      done;
      List.for_all
        (fun c -> AR.equal (Sue.phi t c) (Sue.phi (Sue.scramble_others rng t c) c))
        [ Colour.red; Colour.black ])

let phi_scramble_changes_other_view =
  QCheck.Test.make ~name:"scrambling perturbs the other colour's view" ~count:40
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let t = Sue.build pipeline.Sep_core.Scenarios.cfg in
      let s' = Sue.scramble_others rng t Colour.red in
      (* 24 words of BLACK partition are randomized: collision is absurdly unlikely *)
      not (AR.equal (Sue.phi t Colour.black) (Sue.phi s' Colour.black)))

let test_nextop_names () =
  let t = Sue.build pipeline.Sep_core.Scenarios.cfg in
  let name = Sue.nextop_name t in
  Alcotest.(check bool) "active regime op" true
    (String.length name > 4 && String.sub name 0 4 = "RED:");
  let t2 = build [ i Isa.Halt ] [ i Isa.Halt ] ~red_devices:[] ~black_devices:[] () in
  run_steps t2 2;
  let stall = Sue.nextop_name t2 in
  Alcotest.(check bool) "stall op once everyone waits" true
    (String.length stall > 6 && String.sub stall (String.length stall - 6) 6 = ":stall")

let test_system_extracts () =
  let sys = Sue.to_system ~inputs:pipeline.Sep_core.Scenarios.alphabet pipeline.Sep_core.Scenarios.cfg in
  let i = [ (0, 5); (2, 7) ] in
  Alcotest.(check (list (pair int int))) "red components" [ (0, 5) ]
    (sys.Sep_model.System.extract_input Colour.red i);
  Alcotest.(check (list (pair int int))) "black components" [ (2, 7) ]
    (sys.Sep_model.System.extract_input Colour.black i)

(* -- the kernel as machine code ---------------------------------------------------- *)

let pipeline_cfg = Sep_core.Scenarios.pipeline.Sep_core.Scenarios.cfg
let pipeline_alpha = Array.of_list Sep_core.Scenarios.pipeline.Sep_core.Scenarios.alphabet

let test_asm_kernel_functionally_equivalent () =
  let a = Sue.build ~impl:Sue.Microcode pipeline_cfg in
  let b = Sue.build ~impl:Sue.Assembly pipeline_cfg in
  let inputs n = if n mod 20 = 0 && n < 60 then [ (0, (n / 20) + 1) ] else [] in
  Alcotest.(check (list (list (pair int int)))) "same outputs from machine code"
    (Sue.run a ~steps:100 ~inputs) (Sue.run b ~steps:100 ~inputs);
  Alcotest.(check bool) "the kernel really is code" true (Sue.kernel_code_words b > 100);
  Alcotest.(check int) "and microcode is not" 0 (Sue.kernel_code_words a)

let asm_phi_lockstep =
  QCheck.Test.make ~name:"assembly and microcode kernels agree on every view, every step"
    ~count:20 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let a = Sue.build ~impl:Sue.Microcode pipeline_cfg in
      let b = Sue.build ~impl:Sue.Assembly pipeline_cfg in
      let ok = ref true in
      for _ = 1 to 200 do
        let input = Prng.choose rng pipeline_alpha in
        ignore (Sue.step a input);
        ignore (Sue.step b input);
        List.iter
          (fun c -> if not (AR.equal (Sue.phi a c) (Sue.phi b c)) then ok := false)
          [ Colour.red; Colour.black ]
      done;
      !ok)

let test_asm_rejects_unsupported () =
  Alcotest.check_raises "quantum unsupported"
    (Invalid_argument "Sue.build (assembly): preemption quantum not supported") (fun () ->
      ignore
        (Sue.build ~impl:Sue.Assembly
           (Config.make ~quantum:3
              ~regimes:[ { Config.colour = Colour.red; part_size = 8; program = spin; devices = [] } ]
              ~channels:[] ())));
  Alcotest.check_raises "capacity must be 1"
    (Invalid_argument "Sue.build (assembly): channel capacities must be 1") (fun () ->
      ignore
        (Sue.build ~impl:Sue.Assembly
           (Config.make
              ~regimes:
                [
                  { Config.colour = Colour.red; part_size = 8; program = spin; devices = [] };
                  { Config.colour = Colour.black; part_size = 8; program = spin; devices = [] };
                ]
              ~channels:[ (Colour.red, Colour.black, 2) ] ())))

(* -- preemption ------------------------------------------------------------------ *)

let greedy mask =
  [
    i (Isa.Loadi (5, 1));
    i (Isa.Loadi (3, mask));
    i (Isa.Loadi (4, 9));
    Isa.Label "loop";
    i (Isa.Load (1, 4, 0));
    i (Isa.Add (1, 5));
    i (Isa.And_ (1, 3));
    i (Isa.Store (1, 4, 0));
    Isa.Branch "loop";
  ]

let preemptive_pair quantum =
  Sue.build
    (Config.make ~quantum
       ~regimes:
         [
           { Config.colour = Colour.red; part_size = 10; program = greedy 255; devices = [] };
           { Config.colour = Colour.black; part_size = 10; program = greedy 255; devices = [] };
         ]
       ~channels:[] ())

let progress t c = (Sue.phi t c).AR.mem.(9)

let test_preemption_shares_processor () =
  let t = preemptive_pair 3 in
  run_steps t 120;
  Alcotest.(check bool) "red progressed" true (progress t Colour.red > 0);
  Alcotest.(check bool) "black progressed despite never yielding" true
    (progress t Colour.black > 0);
  (* both got comparable shares of a processor neither would give up *)
  let r = progress t Colour.red and b = progress t Colour.black in
  Alcotest.(check bool) "shares comparable" true (abs (r - b) <= 3)

let test_voluntary_kernel_starves () =
  (* the SUE discipline, same programs: whoever runs first keeps the CPU *)
  let t =
    Sue.build
      (Config.make
         ~regimes:
           [
             { Config.colour = Colour.red; part_size = 10; program = greedy 255; devices = [] };
             { Config.colour = Colour.black; part_size = 10; program = greedy 255; devices = [] };
           ]
         ~channels:[] ())
  in
  run_steps t 120;
  Alcotest.(check bool) "red hogged" true (progress t Colour.red > 0);
  Alcotest.(check int) "black starved" 0 (progress t Colour.black)

let test_preemptive_kernel_verifies () =
  let inst = Sep_core.Scenarios.preemptive in
  let report =
    Sep_core.Separability.check
      (Sue.to_system ~inputs:inst.Sep_core.Scenarios.alphabet inst.Sep_core.Scenarios.cfg)
  in
  Alcotest.(check bool) "preemption preserves separability" true
    (Sep_core.Separability.verified report)

let test_preemptive_mutant_caught () =
  (* context switches now happen behind the regimes' backs, so a broken
     save path is exercised constantly *)
  let inst = Sep_core.Scenarios.preemptive in
  let report =
    Sep_core.Separability.check
      (Sue.to_system ~bugs:[ Sue.Forget_register_save ]
         ~inputs:inst.Sep_core.Scenarios.alphabet inst.Sep_core.Scenarios.cfg)
  in
  Alcotest.(check bool) "forget-register-save caught under preemption" false
    (Sep_core.Separability.verified report)

(* -- tracing ------------------------------------------------------------------- *)

module Ktrace = Sep_core.Ktrace

let test_trace_is_nonperturbing () =
  let cfg = Sep_core.Scenarios.pipeline.Sep_core.Scenarios.cfg in
  let plain = Sue.build cfg in
  let traced = Sue.build cfg in
  let input n = if n mod 7 = 0 then [ (0, n mod 3) ] else [] in
  for n = 0 to 59 do
    ignore (Sue.step plain (input n));
    ignore (Ktrace.step traced (input n))
  done;
  Alcotest.(check bool) "observing the kernel does not change it" true (Sue.equal plain traced)

let test_trace_events () =
  let t = Sue.build Sep_core.Scenarios.pipeline.Sep_core.Scenarios.cfg in
  let entries = Ktrace.record t ~steps:40 ~inputs:(fun n -> if n = 0 then [ (0, 1) ] else []) in
  let events = List.concat_map (fun e -> e.Ktrace.events) entries in
  let has p = List.exists p events in
  Alcotest.(check bool) "saw the arrival" true
    (has (function Ktrace.Arrived { device = 0; word = 1 } -> true | _ -> false));
  Alcotest.(check bool) "saw instructions" true
    (has (function Ktrace.Executed _ -> true | _ -> false));
  Alcotest.(check bool) "saw a trap" true
    (has (function Ktrace.Trapped _ -> true | _ -> false));
  Alcotest.(check bool) "saw a context switch" true
    (has (function Ktrace.Switched _ -> true | _ -> false));
  Alcotest.(check bool) "saw the echo emission" true
    (has (function Ktrace.Emitted { device = 1; word = 1 } -> true | _ -> false));
  let rendered = Ktrace.render entries in
  Alcotest.(check bool) "renders nonempty lines" true (String.length rendered > 100)

let test_trace_preemptive_switches () =
  let t = preemptive_pair 3 in
  let entries = Ktrace.record t ~steps:12 ~inputs:(fun _ -> []) in
  let events = List.concat_map (fun e -> e.Ktrace.events) entries in
  let switches =
    List.length (List.filter (function Ktrace.Switched _ -> true | _ -> false) events)
  in
  let traps = List.exists (function Ktrace.Trapped _ -> true | _ -> false) events in
  Alcotest.(check bool) "switches without any trap" true (switches >= 3 && not traps)

let test_trace_park_event () =
  let t = build [ i (Isa.Trap 9) ] spin ~red_devices:[] ~black_devices:[] () in
  let entries = Ktrace.record t ~steps:4 ~inputs:(fun _ -> []) in
  let events = List.concat_map (fun e -> e.Ktrace.events) entries in
  Alcotest.(check bool) "park visible" true
    (List.exists (function Ktrace.Parked c -> Colour.equal c Colour.red | _ -> false) events)

(* -- the machine-level SNFE --------------------------------------------------- *)

let snfe_uncut () = Config.cut_none Sep_core.Scenarios.snfe_micro.Sep_core.Scenarios.cfg

let test_snfe_micro_end_to_end () =
  let t = Sue.build (snfe_uncut ()) in
  (* host words arrive on RED's Rx (device 0); BLACK's Tx is device 2 *)
  let words = [ 5; 1; 0 ] in
  let inputs n = if n mod 30 = 0 && n / 30 < 3 then [ (0, List.nth words (n / 30)) ] else [] in
  let outs = List.concat (Sue.run t ~steps:150 ~inputs) in
  let expected = List.map (fun w -> (2, w lxor 0x2a)) words in
  Alcotest.(check (list (pair int int))) "network sees exactly the ciphertext" expected outs

let rogue_red header =
  [
    i (Isa.Loadi (1, header));
    i (Isa.Loadi (0, 1));
    i (Isa.Trap 1);  (* header straight to the censor *)
    i (Isa.Trap 0);
    i Isa.Halt;
  ]

let with_rogue_red header =
  let cfg = snfe_uncut () in
  let regimes =
    List.map
      (fun r ->
        if Colour.equal r.Config.colour Colour.red then { r with Config.program = rogue_red header }
        else r)
      cfg.Config.regimes
  in
  { cfg with Config.regimes = regimes }

(* Whether the censor ever buffered anything on its outgoing channel. *)
let censor_forwarded t steps =
  let censor = Colour.make "CENSOR" in
  let forwarded = ref false in
  for _ = 1 to steps do
    ignore (Sue.step t []);
    let view = Sue.phi t censor in
    Array.iter
      (fun e -> if e.AR.ce_chan = 2 && e.AR.ce_contents <> [] then forwarded := true)
      view.AR.sends
  done;
  !forwarded

let test_snfe_micro_censor_blocks_oversize () =
  Alcotest.(check bool) "an over-long header never crosses the bypass" false
    (censor_forwarded (Sue.build (with_rogue_red 0xff)) 40)

let test_snfe_micro_censor_passes_wellformed () =
  Alcotest.(check bool) "a two-bit header is vetted through" true
    (censor_forwarded (Sue.build (with_rogue_red 2)) 40)

let test_device_slot () =
  let t =
    build spin spin ~red_devices:[ Machine.Rx; Machine.Tx ] ~black_devices:[ Machine.Rx ] ()
  in
  Alcotest.(check (pair string int)) "dev 1 is red slot 1" ("RED", 1)
    (let c, s = Sue.device_slot t 1 in
     (Colour.name c, s));
  Alcotest.(check (pair string int)) "dev 2 is black slot 0" ("BLACK", 0)
    (let c, s = Sue.device_slot t 2 in
     (Colour.name c, s))

let test_scenarios_wellformed () =
  (* every shipped scenario builds and its alphabet addresses only Rx devices *)
  List.iter
    (fun (inst : Sep_core.Scenarios.instance) ->
      let t = Sue.build inst.Sep_core.Scenarios.cfg in
      List.iter
        (List.iter (fun (d, w) ->
             Alcotest.(check bool)
               (Fmt.str "%s: input device %d is Rx" inst.Sep_core.Scenarios.label d)
               true
               (Sep_hw.Machine.device_kind (Sue.machine t) d = Machine.Rx);
             Alcotest.(check bool) "word in range" true (w >= 0 && w <= 0xffff)))
        inst.Sep_core.Scenarios.alphabet)
    Sep_core.Scenarios.all

(* [AR.equal] compares field by field. It must agree with the structural
   equality it replaced: on pairs of Phi images of reachable states (both
   kernels, and snfe-micro's crypto is an Xform device), on a view and
   each single-field mutation of it, Xform keys included, in both
   orders, and on a view and itself. *)
let structural_equal (a : AR.t) (b : AR.t) =
  a.AR.mem = b.AR.mem && a.AR.regs = b.AR.regs && a.AR.flag_z = b.AR.flag_z
  && a.AR.flag_n = b.AR.flag_n && a.AR.status = b.AR.status && a.AR.devices = b.AR.devices
  && a.AR.sends = b.AR.sends && a.AR.recvs = b.AR.recvs

let view_mutations (a : AR.t) =
  let set arr i v =
    let c = Array.copy arr in
    c.(i) <- v;
    c
  in
  let words arr =
    List.init (Array.length arr) (fun i -> set arr i ((arr.(i) + 1) land 0xffff))
    @ [ Array.append arr [| 0 |]; Array.sub arr 0 (max 0 (Array.length arr - 1)) ]
  in
  let kinds =
    Machine.
      [
        Rx; Tx; Xform Identity; Xform (Xor_key 0x2a); Xform (Xor_key 0x2b); Xform (Add_key 0x2a);
      ]
  in
  (* the same kind, freshly allocated: equal, but not physically *)
  let same_kind = function
    | Machine.Xform (Machine.Xor_key k) -> Machine.Xform (Machine.Xor_key (k + 0))
    | Machine.Xform (Machine.Add_key k) -> Machine.Xform (Machine.Add_key (k + 0))
    | k -> k
  in
  let device_changes (d : AR.device_view) =
    List.map (fun k -> { d with AR.dv_kind = k }) (same_kind d.AR.dv_kind :: kinds)
    @ [
        { d with AR.dv_data = d.AR.dv_data + 1 };
        { d with AR.dv_status = d.AR.dv_status + 1 };
        { d with AR.dv_irq = not d.AR.dv_irq };
      ]
  in
  let end_changes (e : AR.chan_end) =
    [
      { e with AR.ce_chan = e.AR.ce_chan + 1 };
      { e with AR.ce_capacity = e.AR.ce_capacity + 1 };
      { e with AR.ce_contents = e.AR.ce_contents @ [ 7 ] };
      { e with AR.ce_contents = List.map (fun w -> w + 1) e.AR.ce_contents };
      { e with AR.ce_contents = (match e.AR.ce_contents with [] -> [] | _ :: rest -> rest) };
      { e with AR.ce_contents = List.map (fun w -> w + 0) e.AR.ce_contents };
    ]
  in
  let each arr changes =
    List.concat
      (List.init (Array.length arr) (fun i -> List.map (set arr i) (changes arr.(i))))
    @ [ Array.sub arr 0 (max 0 (Array.length arr - 1)); Array.copy arr ]
  in
  List.map (fun mem -> { a with AR.mem }) (words a.AR.mem)
  @ List.map (fun regs -> { a with AR.regs }) (words a.AR.regs)
  @ [ { a with AR.flag_z = not a.AR.flag_z }; { a with AR.flag_n = not a.AR.flag_n } ]
  @ List.map (fun status -> { a with AR.status }) [ AR.Running; AR.Waiting; AR.Parked ]
  @ List.map (fun devices -> { a with AR.devices }) (each a.AR.devices device_changes)
  @ List.map (fun sends -> { a with AR.sends }) (each a.AR.sends end_changes)
  @ List.map (fun recvs -> { a with AR.recvs }) (each a.AR.recvs end_changes)
  @ [ { a with AR.mem = Array.copy a.AR.mem } ]

let test_abstract_equal_structural () =
  let module System = Sep_model.System in
  let agree label a b =
    if AR.equal a b <> structural_equal a b then
      Alcotest.failf "%s: AR.equal says %b, structural equality %b on@ %a@ and@ %a" label
        (AR.equal a b) (structural_equal a b) AR.pp a AR.pp b
  in
  let mutated = ref 0 and unequal = ref 0 in
  List.iter
    (fun (impl, (inst : Sep_core.Scenarios.instance)) ->
      let label = Fmt.str "%s (%a)" inst.label Sue.pp_impl impl in
      let sys = Sue.to_system ~impl ~inputs:inst.alphabet inst.cfg in
      let states = Array.of_list (System.reachable sys) in
      List.iter
        (fun c ->
          let images = Array.map (sys.System.abstract c) states in
          Array.iteri
            (fun k a ->
              agree label a a;
              agree label a (sys.System.abstract c states.(k));
              if k > 0 then begin
                agree label images.(k - 1) a;
                if not (AR.equal images.(k - 1) a) then incr unequal
              end;
              if k mod 97 = 0 then
                List.iter
                  (fun m ->
                    incr mutated;
                    agree label a m;
                    agree label m a)
                  (view_mutations a))
            images)
        sys.System.colours)
    [
      (Sue.Microcode, Sep_core.Scenarios.pipeline);
      (Sue.Assembly, Sep_core.Scenarios.pipeline);
      (Sue.Microcode, Sep_core.Scenarios.snfe_micro);
      (Sue.Microcode, Sep_core.Scenarios.interrupt);
    ];
  Alcotest.(check bool) "mutations tried" true (!mutated > 1000);
  Alcotest.(check bool) "unequal neighbours seen" true (!unequal > 100)

let test_copy_equal_hash () =
  let t = Sue.build pipeline.Sep_core.Scenarios.cfg in
  let t2 = Sue.copy t in
  Alcotest.(check bool) "copies equal" true (Sue.equal t t2);
  Alcotest.(check bool) "hash agrees" true (Sue.hash t = Sue.hash t2);
  ignore (Sue.step t [ (0, 1) ]);
  Alcotest.(check bool) "diverged" false (Sue.equal t t2)

(* Over whole reachable sets, on both kernels: the state hash agrees with
   copies and separates states (the checker's dedup is then one bucket
   probe, not a scan), and per colour the abstract hash tells apart
   exactly the Phi images [AR.equal] tells apart. *)
let test_reachable_hashes () =
  let module System = Sep_model.System in
  List.iter
    (fun (impl, (inst : Sep_core.Scenarios.instance)) ->
      let label = Fmt.str "%s (%a)" inst.label Sue.pp_impl impl in
      let sys = Sue.to_system ~impl ~inputs:inst.alphabet inst.cfg in
      let states = System.reachable sys in
      List.iter
        (fun s ->
          if Sue.hash (Sue.copy s) <> Sue.hash s then Alcotest.failf "%s: copy hashes apart" label)
        states;
      let hashes = List.map Sue.hash states in
      let distinct = List.length (List.sort_uniq Int.compare hashes) in
      let buckets = Hashtbl.create 1024 in
      List.iter
        (fun h -> Hashtbl.replace buckets h (1 + Option.value ~default:0 (Hashtbl.find_opt buckets h)))
        hashes;
      let largest = Hashtbl.fold (fun _ n m -> max n m) buckets 0 in
      Alcotest.(check bool)
        (Fmt.str "%s: largest bucket %d <= 2" label largest)
        true (largest <= 2);
      Alcotest.(check bool)
        (Fmt.str "%s: %d distinct hashes over %d states" label distinct (List.length states))
        true
        (100 * distinct >= 99 * List.length states);
      List.iter
        (fun c ->
          let images = List.map (sys.System.abstract c) states in
          (* [AR.equal] is structural equality, so structural order's
             classes are its classes: counted without trusting the hash *)
          let classes = List.length (List.sort_uniq compare images) in
          let hashed = List.sort_uniq compare (List.map (fun a -> (AR.hash a, a)) images) in
          Alcotest.(check int)
            (Fmt.str "%s %a: one hash per image" label Colour.pp c)
            classes (List.length hashed);
          Alcotest.(check int)
            (Fmt.str "%s %a: distinct abstract hashes = distinct images" label Colour.pp c)
            classes
            (List.length (List.sort_uniq Int.compare (List.map fst hashed))))
        sys.System.colours)
    (List.concat_map
       (fun impl -> List.map (fun inst -> (impl, inst)) Sep_core.Scenarios.[ pipeline; interrupt; snfe_micro ])
       [ Sue.Microcode; Sue.Assembly ])

(* The mutant catalogue must stay in lockstep with the bug list: every
   seeded bug has an expectation, and every one of the six conditions is
   some mutant's predicted primary — otherwise a condition has no
   demonstrated discriminating power (E4). *)
let test_mutant_catalogue_covers_bugs_and_conditions () =
  let module Mutants = Sep_core.Mutants in
  List.iter
    (fun bug ->
      if
        not
          (List.exists (fun (e : Mutants.expectation) -> e.Mutants.bug = bug) Mutants.catalogue)
      then Alcotest.failf "no mutant expectation for %a" Sue.pp_bug bug)
    Sue.all_bugs;
  let primaries =
    List.sort_uniq compare (List.map (fun (e : Mutants.expectation) -> e.Mutants.primary) Mutants.catalogue)
  in
  List.iter
    (fun cond ->
      if not (List.mem cond primaries) then
        Alcotest.failf "condition %d is no mutant's primary" cond)
    [ 1; 2; 3; 4; 5; 6 ];
  List.iter
    (fun (e : Mutants.expectation) ->
      if e.Mutants.primary < 1 || e.Mutants.primary > 6 then
        Alcotest.failf "%a predicts out-of-range condition %d" Sue.pp_bug e.Mutants.bug
          e.Mutants.primary)
    Mutants.catalogue

(* -- pinned kernel behaviour and allocation ----------------------------------- *)

module Scenarios = Sep_core.Scenarios
module Mix = Sep_util.Mix

(* The configurations the [kernel] benchmark steps. *)
let kernel_configs =
  List.map (fun inst -> (inst, Sue.Microcode)) (Scenarios.all @ [ Scenarios.scaled ~regimes:2 ~counter_bits:3 ])
  @ [ (Scenarios.pipeline, Sue.Assembly) ]

let kernel_config_name ((inst : Scenarios.instance), impl) =
  Fmt.str "%s:%a" inst.Scenarios.label Sue.pp_impl impl

let kernel_steps = 20_000

(* One input from the scenario alphabet every 10th step; config [i] draws
   from [Prng.stream 7 i]. *)
let kernel_schedule (inst : Scenarios.instance) i =
  let alphabet = Array.of_list inst.Scenarios.alphabet in
  let rng = Prng.stream 7 i in
  Array.init kernel_steps (fun n -> if n mod 10 = 0 then Prng.choose rng alphabet else [])

(* Every output (step, device, word), every [kstats] counter and the final
   state hash. *)
let kernel_digest k sched =
  let h = ref Mix.seed in
  Array.iteri
    (fun n inp -> List.iter (fun (d, w) -> h := Mix.int (Mix.int (Mix.int !h n) d) w) (Sue.step k inp))
    sched;
  let s = Sue.kstats k in
  let h =
    List.fold_left Mix.int !h
      ([ s.Sue.ks_switches; s.ks_irqs_forwarded; s.ks_wakes; s.ks_stalls; s.ks_inputs_latched;
         s.ks_outputs_observed; s.ks_kernel_instrs; s.ks_fault_parks; s.ks_guard_breaches;
         s.ks_chan_repairs; s.ks_watchdog_fires; s.ks_panics; s.ks_checkpoints; s.ks_restarts;
         s.ks_warm_reboots ]
      @ List.concat_map (List.map snd) [ s.ks_instrs; s.ks_traps; s.ks_swaps; s.ks_sent; s.ks_recvd ])
  in
  Mix.finish (Mix.int h (Sue.hash k))

(* Per config: the clean kernel, then one kernel per bug of [Sue.all_bugs],
   in order. *)
let pinned_kernel_digests =
  [
    ( "pipeline:microcode",
      [ 4483942778524370589; 451912857128451989; 704124286984050116; 3496782118810051428;
        4242786197446347390; 2984384638276206943; 320686034649227778; 4457119171480149579;
        4483942778524370589 ] );
    ( "interrupt:microcode",
      [ 2691749044711788204; 2691749044711788204; 28125813794791200; 4466321967456974833;
        2317171331783372777; 2691749044711788204; 1128116962111609631; 2691749044711788204;
        4454351122613081933 ] );
    ( "snfe-micro:microcode",
      [ 4144791469757377412; 205433729546500281; 1131855682493529041; 3153740423557958473;
        1938312324188366455; 4144791469757377412; 2297656506758253420; 2554371109878928161;
        1151176091764659322 ] );
    ( "preemptive:microcode",
      [ 2543406532125153602; 1606998187680678953; 1485448063759272600; 2543406532125153602;
        2543406532125153602; 2543406532125153602; 2543406532125153602; 2543406532125153602;
        2543406532125153602 ] );
    ( "scaled-2x3b:microcode",
      [ 1549355187879295787; 1957924612272388063; 1431091644070290741; 1549355187879295787;
        1549355187879295787; 1549355187879295787; 1549355187879295787; 1549355187879295787;
        1549355187879295787 ] );
    ( "pipeline:assembly",
      [ 2697846345739094442; 3225546757370895273; 136257549404232740; 1072765999912343998;
        840534213206002320; 1920970647123832621; 4531678817957127590; 1699099611369357938;
        2697846345739094442 ] );
  ]

let test_kernel_digests_pinned () =
  List.iteri
    (fun i ((inst, impl) as c) ->
      let name = kernel_config_name c in
      let sched = kernel_schedule inst i in
      List.iter2
        (fun (label, bugs) want ->
          let k = Sue.build ~bugs ~impl inst.Scenarios.cfg in
          Alcotest.(check int) (Fmt.str "%s %s" name label) want (kernel_digest k sched))
        (("clean", []) :: List.map (fun b -> (Fmt.str "%a" Sue.pp_bug b, [ b ])) Sue.all_bugs)
        (List.assoc name pinned_kernel_digests))
    kernel_configs

(* Minor-heap words per [Sue.step], inputs built up front. Each bound is
   under half of what the step allocated while it snapshotted device
   registers, walked closures and built lists on every step (95, 62, 89,
   92, 78 and 361 words). *)
let step_words_bound =
  [
    ("pipeline:microcode", 24.0);
    ("interrupt:microcode", 12.0);
    ("snfe-micro:microcode", 24.0);
    ("preemptive:microcode", 30.0);
    ("scaled-2x3b:microcode", 24.0);
    ("pipeline:assembly", 150.0);
  ]

let test_kernel_step_allocation () =
  List.iteri
    (fun i ((inst, impl) as c) ->
      let name = kernel_config_name c in
      let k = Sue.build ~impl inst.Scenarios.cfg in
      let sched = kernel_schedule inst i in
      let w0 = Gc.minor_words () in
      Array.iter (fun inp -> ignore (Sue.step k inp)) sched;
      let per_step = (Gc.minor_words () -. w0) /. float_of_int kernel_steps in
      let bound = List.assoc name step_words_bound in
      if per_step > bound then
        Alcotest.failf "%s: %.1f minor words per step, bound %.0f" name per_step bound)
    kernel_configs

let () =
  Alcotest.run "sue"
    [
      ( "layout",
        [
          Alcotest.test_case "kernel words" `Quick test_kernel_words;
          Alcotest.test_case "rejects overflow" `Quick test_build_rejects_overflow;
          Alcotest.test_case "rejects bad config" `Quick test_build_rejects_bad_config;
          Alcotest.test_case "device ownership" `Quick test_device_ownership;
        ] );
      ( "switching",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin;
          Alcotest.test_case "context preserved" `Quick test_swap_preserves_context;
          Alcotest.test_case "no other runnable" `Quick test_swap_with_no_other_runnable;
        ] );
      ( "channels",
        [
          Alcotest.test_case "uncut roundtrip" `Quick test_channel_roundtrip_uncut;
          Alcotest.test_case "cut channel is dry" `Quick test_channel_cut_is_dry;
          Alcotest.test_case "capacity" `Quick test_channel_capacity;
          Alcotest.test_case "wrong owner" `Quick test_channel_wrong_owner;
          Alcotest.test_case "bad id" `Quick test_channel_bad_id;
          Alcotest.test_case "head corruption repaired" `Quick test_ring_head_corruption_repaired;
          Alcotest.test_case "empty ring corruption inert" `Quick
            test_ring_head_corruption_empty_ring_ignored;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault parks" `Quick test_fault_parks;
          Alcotest.test_case "unknown trap parks" `Quick test_unknown_trap_parks;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "wake on input" `Quick test_wake_on_input;
          Alcotest.test_case "wait falls through" `Quick test_wait_falls_through_with_pending_data;
          Alcotest.test_case "outputs and drain" `Quick test_outputs_and_drain;
        ] );
      ( "assembly kernel",
        [
          Alcotest.test_case "functional equivalence" `Quick test_asm_kernel_functionally_equivalent;
          qtest asm_phi_lockstep;
          Alcotest.test_case "rejects unsupported configs" `Quick test_asm_rejects_unsupported;
        ] );
      ( "preemption",
        [
          Alcotest.test_case "shares the processor" `Quick test_preemption_shares_processor;
          Alcotest.test_case "voluntary kernel starves" `Quick test_voluntary_kernel_starves;
          Alcotest.test_case "verifies under PoS" `Quick test_preemptive_kernel_verifies;
          Alcotest.test_case "mutant caught" `Quick test_preemptive_mutant_caught;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "non-perturbing" `Quick test_trace_is_nonperturbing;
          Alcotest.test_case "event kinds" `Quick test_trace_events;
          Alcotest.test_case "preemptive switches" `Quick test_trace_preemptive_switches;
          Alcotest.test_case "park event" `Quick test_trace_park_event;
        ] );
      ( "snfe micro",
        [
          Alcotest.test_case "end to end encryption" `Quick test_snfe_micro_end_to_end;
          Alcotest.test_case "censor blocks oversize" `Quick test_snfe_micro_censor_blocks_oversize;
          Alcotest.test_case "censor passes wellformed" `Quick test_snfe_micro_censor_passes_wellformed;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "live vs saved" `Quick test_phi_live_vs_saved;
          qtest phi_scramble_preserves_own_view;
          qtest phi_scramble_changes_other_view;
          Alcotest.test_case "nextop names" `Quick test_nextop_names;
          Alcotest.test_case "system extracts" `Quick test_system_extracts;
          Alcotest.test_case "device slot" `Quick test_device_slot;
          Alcotest.test_case "scenarios wellformed" `Quick test_scenarios_wellformed;
          Alcotest.test_case "copy equal hash" `Quick test_copy_equal_hash;
          Alcotest.test_case "equal is structural" `Quick test_abstract_equal_structural;
          Alcotest.test_case "reachable hashes" `Quick test_reachable_hashes;
          Alcotest.test_case "mutant catalogue coverage" `Quick
            test_mutant_catalogue_covers_bugs_and_conditions;
        ] );
      ( "kernel pins",
        [
          Alcotest.test_case "behaviour digests" `Quick test_kernel_digests_pinned;
          Alcotest.test_case "step allocation" `Quick test_kernel_step_allocation;
        ] );
    ]
