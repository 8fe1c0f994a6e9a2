module Colour = Sep_model.Colour
module System = Sep_model.System
module Machine = Sep_hw.Machine
module Isa = Sep_hw.Isa
module Word = Sep_hw.Word

type bug =
  | Forget_register_save
  | Partition_hole
  | Misroute_interrupt
  | Misroute_device_input
  | Output_leak
  | Schedule_on_foreign_state
  | Uncut_channel
  | Input_crosstalk

let pp_bug ppf b =
  Fmt.string ppf
    (match b with
    | Forget_register_save -> "forget-register-save"
    | Partition_hole -> "partition-hole"
    | Misroute_interrupt -> "misroute-interrupt"
    | Misroute_device_input -> "misroute-device-input"
    | Output_leak -> "output-leak"
    | Schedule_on_foreign_state -> "schedule-on-foreign-state"
    | Uncut_channel -> "uncut-channel"
    | Input_crosstalk -> "input-crosstalk")

let all_bugs =
  [
    Forget_register_save;
    Partition_hole;
    Misroute_interrupt;
    Misroute_device_input;
    Output_leak;
    Schedule_on_foreign_state;
    Uncut_channel;
    Input_crosstalk;
  ]

type impl =
  | Microcode
  | Assembly

let pp_impl ppf = function
  | Microcode -> Fmt.string ppf "microcode"
  | Assembly -> Fmt.string ppf "assembly"

(* Kernel data layout, in words of kernel memory:
     0                 index of the current regime
     1                 quantum countdown (preemptive configurations only;
                       reused as the watchdog countdown when a watchdog is
                       armed instead)
     2 + 12r ..        regime r's record: R0..R7, flags, status, save-area
                       checksum, 1 spare
     after regimes     channel records: two ring-buffer areas per channel
                       (sender end then receiver end), each laid out as
                       head, count, data[capacity].
   Assembly configurations append, after the channel records:
     RDT               regime descriptor table, 8 words per regime:
                       part_base, part_size, slot count, 4 slot ids, spare
     KCODE             the kernel's machine code (entry vector first).
   Outside the kernel partition proper, one guard word precedes each
   regime partition and one trails the last, so the kernel data (and, for
   Assembly, the descriptor table and kernel code) and every partition is
   fenced by a known pattern whose corruption is detectable. *)

let regime_record = 12
let off_flags = 8
let off_status = 9
let off_checksum = 10

let guard_pattern = 0xa5c3
let checksum_salt = 0x5ee1

let status_runnable = 0
let status_waiting = 1
let status_parked = 2

type chan_info = {
  ci_id : int;
  ci_sender : int;
  ci_receiver : int;
  ci_capacity : int;
  ci_cut : bool;
  ci_area_a : int;  (* the end SEND fills *)
  ci_area_b : int;  (* the end RECV drains when the channel is cut *)
}

type layout = {
  nregs : int;
  colours : Colour.t array;
  part_base : int array;
  part_size : int array;
  save_base : int array;
  chans : chan_info array;
  kernel_size : int;
  guards : int array;  (* physical addresses of the guard words *)
  dev_owner : int array;
  dev_slots : int array array;
  dev_kinds : Machine.device_kind array;
}

(* A corruption the kernel detected and survived. Detection is part of the
   hardening, not of the verified separation model: every fault below puts
   the kernel into a defined safe state (a parked regime, a repaired guard,
   a forced yield, or a full halt) instead of raising. *)
type kernel_fault =
  | Save_area_corrupt of Colour.t
  | Guard_breach of int
  | Channel_head_corrupt of int
  | Watchdog_expired of Colour.t
  | Kernel_panic of string
  | Regime_restart of Colour.t
  | Checkpoint_corrupt of Colour.t
  | Warm_reboot

let pp_kernel_fault ppf = function
  | Save_area_corrupt c -> Fmt.pf ppf "save area of %a corrupt" Colour.pp c
  | Guard_breach a -> Fmt.pf ppf "guard word at %04x breached" a
  | Channel_head_corrupt a -> Fmt.pf ppf "channel head word at %04x corrupt; repaired" a
  | Watchdog_expired c -> Fmt.pf ppf "watchdog expired on %a" Colour.pp c
  | Kernel_panic reason -> Fmt.pf ppf "kernel panic: %s" reason
  | Regime_restart c -> Fmt.pf ppf "%a restarted from its checkpoint" Colour.pp c
  | Checkpoint_corrupt c -> Fmt.pf ppf "checkpoint of %a corrupt; not restored" Colour.pp c
  | Warm_reboot -> Fmt.string ppf "kernel warm reboot"

(* Per-instance kernel counters. Arrays are indexed by regime; the record
   is shared by [copy], so one build's whole family of snapshots (e.g. a
   state-space exploration) accumulates into a single tally. *)
type counts = {
  ct_instrs : int array;
  ct_traps : int array;
  ct_swaps : int array;
  ct_sent : int array;
  ct_recvd : int array;
  mutable ct_switches : int;
  mutable ct_irqs_forwarded : int;
  mutable ct_wakes : int;
  mutable ct_stalls : int;
  mutable ct_inputs_latched : int;
  mutable ct_outputs_observed : int;
  mutable ct_kernel_instrs : int;
  mutable ct_fault_parks : int;
  mutable ct_guard_breaches : int;
  mutable ct_chan_repairs : int;
  mutable ct_watchdog_fires : int;
  mutable ct_panics : int;
  mutable ct_checkpoints : int;
  mutable ct_restarts : int;
  mutable ct_warm_reboots : int;
  mutable ct_fault_log : kernel_fault list;  (* newest first *)
  mutable ct_fault_log_len : int;
}

(* A regime checkpoint: the save-area image (registers and flags as the
   regime would resume them) plus the partition contents, sealed by the
   same rotate-and-xor checksum the save areas use. Checkpoints live in a
   store shared across [copy] — the model of stable storage that survives
   the crash being recovered from — and, like [counts], sit outside
   [equal]/[hash]/[phi]: they are the recovery mechanism's private state,
   not part of the machine being verified. *)
type checkpoint = {
  ck_save : int array;  (* save-area slots 0 .. off_flags *)
  ck_part : Bytes.t;  (* partition contents, as [Machine.read_phys_words] packs them *)
  ck_sum : int;
}

type ckstore = {
  ck_init : checkpoint array;  (* as-built image, always available *)
  ck_last : checkpoint option array;  (* latest effect-boundary capture *)
}

type kstats = {
  ks_instrs : (Colour.t * int) list;
  ks_traps : (Colour.t * int) list;
  ks_swaps : (Colour.t * int) list;
  ks_sent : (Colour.t * int) list;
  ks_recvd : (Colour.t * int) list;
  ks_switches : int;
  ks_irqs_forwarded : int;
  ks_wakes : int;
  ks_stalls : int;
  ks_inputs_latched : int;
  ks_outputs_observed : int;
  ks_kernel_instrs : int;
  ks_fault_parks : int;
  ks_guard_breaches : int;
  ks_chan_repairs : int;
  ks_watchdog_fires : int;
  ks_panics : int;
  ks_checkpoints : int;
  ks_restarts : int;
  ks_warm_reboots : int;
}

type t = {
  layout : layout;
  cfg : Isa.stmt list Config.t;
  bug_list : bug list;
  m : Machine.t;
  impl : impl;
  rdt_base : int;  (* 0 for Microcode *)
  code_base : int;
  code_len : int;
  watchdog : int option;
  counts : counts;
  ckstore : ckstore;
}

type input = (int * int) list
type output = (int * int) list

let has_bug t b = List.mem b t.bug_list

(* -- Layout and construction --------------------------------------------- *)

let compute_layout ?(extra = 0) (cfg : Isa.stmt list Config.t) =
  let regimes = Array.of_list cfg.Config.regimes in
  let nregs = Array.length regimes in
  let colours = Array.map (fun r -> r.Config.colour) regimes in
  let save_base = Array.init nregs (fun r -> 2 + (regime_record * r)) in
  let chan_base = 2 + (regime_record * nregs) in
  let pos = ref chan_base in
  let index_of c =
    let rec find i = if Colour.equal colours.(i) c then i else find (i + 1) in
    find 0
  in
  let chan ch =
    let area = ch.Config.capacity + 2 in
    let a = !pos in
    pos := !pos + (2 * area);
    {
      ci_id = ch.Config.chan_id;
      ci_sender = index_of ch.Config.sender;
      ci_receiver = index_of ch.Config.receiver;
      ci_capacity = ch.Config.capacity;
      ci_cut = ch.Config.cut;
      ci_area_a = a;
      ci_area_b = a + area;
    }
  in
  let chans = Array.of_list (List.map chan cfg.Config.channels) in
  let kernel_size = !pos + extra in
  let part_size = Array.map (fun r -> r.Config.part_size) regimes in
  let part_base = Array.make nregs 0 in
  let guards = Array.make (nregs + 1) 0 in
  let mem = ref kernel_size in
  Array.iteri
    (fun r size ->
      guards.(r) <- !mem;
      part_base.(r) <- !mem + 1;
      mem := !mem + 1 + size)
    part_size;
  guards.(nregs) <- !mem;
  let mem = ref (!mem + 1) in
  let dev_kinds =
    Array.of_list (List.concat_map (fun r -> r.Config.devices) (Array.to_list regimes))
  in
  let dev_owner = Array.make (Array.length dev_kinds) 0 in
  let dev_slots = Array.make nregs [||] in
  let next_dev = ref 0 in
  Array.iteri
    (fun r regime ->
      let slots = List.map (fun _ -> let d = !next_dev in incr next_dev; d) regime.Config.devices in
      List.iter (fun d -> dev_owner.(d) <- r) slots;
      dev_slots.(r) <- Array.of_list slots)
    regimes;
  ( { nregs; colours; part_base; part_size; save_base; chans; kernel_size; guards; dev_owner;
      dev_slots; dev_kinds },
    !mem )

let read_kw t a = Machine.read_phys t.m a
let write_kw t a w = Machine.write_phys t.m a w

let current_index t = read_kw t 0
let set_current_index t r = write_kw t 0 r

let quantum_addr = 1

(* Re-arm the preemption quantum (or watchdog) countdown. *)
let reset_countdown t =
  match (t.cfg.Config.quantum, t.watchdog) with
  | Some q, _ -> write_kw t quantum_addr q
  | None, Some w -> write_kw t quantum_addr w
  | None, None -> ()

let get_status t r = read_kw t (t.layout.save_base.(r) + off_status)
let set_status t r v = write_kw t (t.layout.save_base.(r) + off_status) v

(* -- Hardening: fault log, save-area checksums, guard words ---------------- *)

let fault_log_cap = 4096

let record_fault t f =
  (* every audit event is also a flight-recorder event, so a post-incident
     dump shows the detections in causal position *)
  if Sep_obs.Trace.enabled () then
    Sep_obs.Trace.instant ~cat:"sue"
      ~args:[ ("fault", Sep_util.Json.String (Fmt.str "%a" pp_kernel_fault f)) ]
      "audit";
  let c = t.counts in
  if c.ct_fault_log_len < fault_log_cap then begin
    c.ct_fault_log <- f :: c.ct_fault_log;
    c.ct_fault_log_len <- c.ct_fault_log_len + 1
  end

let drain_faults t =
  let c = t.counts in
  let log = List.rev c.ct_fault_log in
  c.ct_fault_log <- [];
  c.ct_fault_log_len <- 0;
  log

(* Rotate-and-xor over the saved registers and flags (slots 0..8) as they
   sit in memory — deliberately computed by reading memory back rather
   than from the values the kernel meant to write, so the checksum attests
   to what the save area holds, not to what the save path intended. The
   status word (slot 9) is excluded: it is rewritten independently of
   context saves. A nonzero salt makes the all-zero area non-trivial. *)
let save_checksum t r =
  let base = t.layout.save_base.(r) in
  let acc = ref checksum_salt in
  for i = 0 to off_flags do
    let rotated = ((!acc lsl 1) lor (!acc lsr 15)) land 0xffff in
    acc := rotated lxor read_kw t (base + i)
  done;
  !acc

let refresh_save_checksum t r =
  write_kw t (t.layout.save_base.(r) + off_checksum) (save_checksum t r)

let save_area_ok t r = read_kw t (t.layout.save_base.(r) + off_checksum) = save_checksum t r

(* Verify (and repair) every guard word. Repairing restores the fence so
   one breach is reported once, not on every subsequent switch. *)
let guard_sweep t =
  let breaches = ref 0 in
  for i = 0 to Array.length t.layout.guards - 1 do
    let a = t.layout.guards.(i) in
    if read_kw t a <> guard_pattern then begin
      incr breaches;
      t.counts.ct_guard_breaches <- t.counts.ct_guard_breaches + 1;
      record_fault t (Guard_breach a);
      write_kw t a guard_pattern
    end
  done;
  !breaches

let flags_word (z, n) = (if z then 1 else 0) lor (if n then 2 else 0)
let flags_of_word w = (w land 1 <> 0, w land 2 <> 0)

(* -- Checkpoints ----------------------------------------------------------- *)

let feed acc w =
  let rotated = ((acc lsl 1) lor (acc lsr 15)) land 0xffff in
  rotated lxor (w land 0xffff)

let feed_words acc words =
  let acc = ref acc in
  for i = 0 to Array.length words - 1 do
    acc := feed !acc words.(i)
  done;
  !acc

let feed_packed acc b =
  let acc = ref acc in
  for i = 0 to (Bytes.length b / 2) - 1 do
    acc := feed !acc (Bytes.get_uint16_ne b (2 * i))
  done;
  !acc

let checkpoint_sum ~save ~part = feed_packed (feed_words checksum_salt save) part

(* Capture regime [r]. [~live] reads the processor registers (the regime is
   current and running); otherwise the save area is the authority. The
   partition is always read from memory. *)
let capture_checkpoint t r ~live =
  let save =
    if live then begin
      let save = Array.make (off_flags + 1) 0 in
      for i = 0 to Isa.num_regs - 1 do
        save.(i) <- Machine.get_reg t.m i
      done;
      save.(off_flags) <- flags_word (Machine.get_flags t.m);
      save
    end
    else Machine.read_phys_slice t.m t.layout.save_base.(r) (off_flags + 1)
  in
  let part = Machine.read_phys_words t.m t.layout.part_base.(r) t.layout.part_size.(r) in
  { ck_save = save; ck_part = part; ck_sum = checkpoint_sum ~save ~part }

let take_checkpoint t r ~live =
  t.ckstore.ck_last.(r) <- Some (capture_checkpoint t r ~live);
  t.counts.ct_checkpoints <- t.counts.ct_checkpoints + 1

let checkpoint_ok ck = ck.ck_sum = checkpoint_sum ~save:ck.ck_save ~part:ck.ck_part

(* -- The kernel as machine code ------------------------------------------- *)

(* Generated, configuration-specialised kernel assembly (as the real SUE
   was built for its deployment). Register conventions inside the kernel:
   r6 = trap frame base (0x7f00), r5 = index of the regime that trapped,
   r3 = its save-area base, r0-r2, r4 = scratch. Arguments and results of
   kernel services live in the interrupted regime's SAVE AREA (the exit
   path reloads the frame from there before Rti). *)
let generate_kernel ~bugs ~nregs ~rdt ~chan_descs =
  let i x = Isa.Instr x in
  (* dst := 12 * idx + 2, clobbering r0 *)
  let save_base_of ~dst ~idx =
    [
      i (Isa.Mov (dst, idx));
      i (Isa.Shl (dst, 3));
      i (Isa.Mov (0, idx));
      i (Isa.Shl (0, 2));
      i (Isa.Add (dst, 0));
      i (Isa.Loadi (0, 2));
      i (Isa.Add (dst, 0));
    ]
  in
  (* copy registers + flags between the frame (r6) and a save area *)
  let save_frame_to ~base =
    List.concat_map
      (fun k ->
        if k = 3 && List.mem Forget_register_save bugs then []
        else [ i (Isa.Load (0, 6, k)); i (Isa.Store (0, base, k)) ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    @ [ i (Isa.Load (0, 6, 8)); i (Isa.Store (0, base, 8)) ]
  in
  let load_frame_from ~base =
    List.concat_map
      (fun k -> [ i (Isa.Load (0, base, k)); i (Isa.Store (0, 6, k)) ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let case value label = [ i (Isa.Loadi (1, value)); i (Isa.Cmp (0, 1)); Isa.Branch_eq label ] in
  let entry =
    [ Isa.Label "entry"; i (Isa.Loadi (6, 0x7f)); i (Isa.Shl (6, 8)) ]
    @ [ i (Isa.Loadi (4, 0)); i (Isa.Load (5, 4, 0)) ]
    @ save_base_of ~dst:3 ~idx:5
    @ save_frame_to ~base:3
    @ [ i (Isa.Load (0, 6, 9)) ]
    @ case Machine.cause_swap "resched"
    @ case Machine.cause_send "send"
    @ case Machine.cause_recv "recv"
    @ case Machine.cause_wait "wait"
    @ case Machine.cause_resched "resched"
    (* bad trap or fault: park the regime *)
    @ [ i (Isa.Loadi (0, status_parked)); i (Isa.Store (0, 3, off_status)); Isa.Branch "resched" ]
    @ [
        Isa.Label "wait";
        i (Isa.Loadi (0, status_waiting));
        i (Isa.Store (0, 3, off_status));
        Isa.Branch "resched";
      ]
  in
  let resched =
    [ Isa.Label "resched"; i (Isa.Loadi (2, nregs)); i (Isa.Mov (1, 5)); Isa.Label "scan" ]
    (* candidate := (candidate + 1) mod nregs *)
    @ [
        i (Isa.Loadi (0, 1));
        i (Isa.Add (1, 0));
        i (Isa.Loadi (0, nregs));
        i (Isa.Cmp (1, 0));
        Isa.Branch_ne "nowrap";
        i (Isa.Loadi (1, 0));
        Isa.Label "nowrap";
      ]
    @ save_base_of ~dst:3 ~idx:1
    @ [ i (Isa.Load (0, 3, off_status)); i (Isa.Loadi (4, 0)); i (Isa.Cmp (0, 4)); Isa.Branch_eq "found" ]
    @ [
        i (Isa.Loadi (0, 1));
        i (Isa.Sub (2, 0));
        i (Isa.Loadi (0, 0));
        i (Isa.Cmp (2, 0));
        Isa.Branch_ne "scan";
      ]
    (* nobody is runnable: stall in kernel mode; the interrupt path
       resumes us here and we rescan *)
    @ [ i Isa.Halt; Isa.Branch "resched" ]
  in
  let found =
    [ Isa.Label "found"; i (Isa.Loadi (4, 0)); i (Isa.Store (1, 4, 0)) ]
    @ [ i (Isa.Loadi (2, rdt)); i (Isa.Mov (0, 1)); i (Isa.Shl (0, 3)); i (Isa.Add (2, 0)) ]
    @ (if List.mem Partition_hole bugs then
         (* spill the outgoing regime's R0 into the incoming partition *)
         [ i (Isa.Load (3, 2, 0)); i (Isa.Load (0, 6, 0)); i (Isa.Store (0, 3, 0)) ]
       else [])
    @ [ i (Isa.Loadi (3, 0x7f)); i (Isa.Shl (3, 8)); i (Isa.Loadi (0, 0x10)); i (Isa.Add (3, 0)) ]
    @ List.concat_map
        (fun (rdt_off, mmu_off) ->
          [ i (Isa.Load (0, 2, rdt_off)); i (Isa.Store (0, 3, mmu_off)) ])
        [ (0, 0); (1, 1); (3, 3); (4, 4); (5, 5); (6, 6); (2, 2) (* slot count last *) ]
    @ save_base_of ~dst:4 ~idx:1
    @ load_frame_from ~base:4
    @ [ i Isa.Rti ]
  in
  let restore =
    [ Isa.Label "restore" ] @ save_base_of ~dst:4 ~idx:5 @ load_frame_from ~base:4 @ [ i Isa.Rti ]
  in
  let dispatch_chan prefix =
    [ Isa.Label prefix; i (Isa.Load (0, 3, 0)) ]
    @ List.concat
        (List.mapi
           (fun k _ -> [ i (Isa.Loadi (1, k)); i (Isa.Cmp (0, 1)); Isa.Branch_eq (Fmt.str "%s%d" prefix k) ])
           chan_descs)
    @ [ Isa.Branch "chanbad" ]
  in
  let send_handler k (sender, _receiver, send_area, _recv_area) =
    [
      Isa.Label (Fmt.str "send%d" k);
      i (Isa.Loadi (1, sender));
      i (Isa.Cmp (5, 1));
      Isa.Branch_ne "chanbad";
      i (Isa.Loadi (4, send_area));
      i (Isa.Load (1, 4, 1));
      i (Isa.Loadi (0, 1));
      i (Isa.Cmp (1, 0));
      Isa.Branch_eq "chanzero";  (* full: capacity is 1 *)
      i (Isa.Load (0, 3, 1));  (* payload: saved R1 *)
      i (Isa.Store (0, 4, 2));
      i (Isa.Loadi (0, 1));
      i (Isa.Store (0, 4, 1));
      i (Isa.Store (0, 3, 2));  (* result: saved R2 := 1 *)
      Isa.Branch "restore";
    ]
  in
  let recv_handler k (_sender, receiver, _send_area, recv_area) =
    [
      Isa.Label (Fmt.str "recv%d" k);
      i (Isa.Loadi (1, receiver));
      i (Isa.Cmp (5, 1));
      Isa.Branch_ne "chanbad";
      i (Isa.Loadi (4, recv_area));
      i (Isa.Load (1, 4, 1));
      i (Isa.Loadi (0, 0));
      i (Isa.Cmp (1, 0));
      Isa.Branch_eq "chanzero";  (* empty *)
      i (Isa.Load (0, 4, 2));
      i (Isa.Store (0, 3, 1));  (* datum into saved R1 *)
      i (Isa.Loadi (0, 0));
      i (Isa.Store (0, 4, 1));
      i (Isa.Loadi (0, 1));
      i (Isa.Store (0, 3, 2));
      Isa.Branch "restore";
    ]
  in
  let tails =
    [
      Isa.Label "chanzero";
      i (Isa.Loadi (0, 0));
      i (Isa.Store (0, 3, 2));
      Isa.Branch "restore";
      Isa.Label "chanbad";
      i (Isa.Loadi (0, 2));
      i (Isa.Store (0, 3, 2));
      Isa.Branch "restore";
    ]
  in
  (* Section order keeps every branch within the ISA's +-128 range:
     handlers branch forward to the shared tails and "restore". *)
  entry @ resched @ found
  @ dispatch_chan "send" @ dispatch_chan "recv"
  @ List.concat (List.mapi send_handler chan_descs)
  @ List.concat (List.mapi recv_handler chan_descs)
  @ tails @ restore

let rdt_stride = 8

let validate_assembly cfg ~rdt ~nregs =
  let fail msg = invalid_arg ("Sue.build (assembly): " ^ msg) in
  if cfg.Config.quantum <> None then fail "preemption quantum not supported";
  if nregs > 4 then fail "at most 4 regimes";
  if List.length cfg.Config.channels > 4 then fail "at most 4 channels";
  List.iter
    (fun ch -> if ch.Config.capacity <> 1 then fail "channel capacities must be 1")
    cfg.Config.channels;
  List.iter
    (fun r -> if List.length r.Config.devices > 4 then fail "at most 4 devices per regime")
    cfg.Config.regimes;
  if rdt + (rdt_stride * nregs) > 250 then fail "kernel data must stay below address 250"

let build ?(bugs = []) ?(impl = Microcode) ?watchdog cfg =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sue.build: " ^ msg));
  (match watchdog with
  | None -> ()
  | Some w ->
    if w < 1 then invalid_arg "Sue.build: watchdog must be positive";
    if cfg.Config.quantum <> None then
      invalid_arg "Sue.build: watchdog and preemption quantum are exclusive";
    if impl = Assembly then invalid_arg "Sue.build: watchdog requires the microcode kernel");
  let nregs = List.length cfg.Config.regimes in
  (* The assembly kernel is generated before the final layout: its data
     addresses (channel areas, RDT) depend only on the configuration. *)
  let kcode, rdt =
    match impl with
    | Microcode -> ([||], 0)
    | Assembly ->
      let chan_base = 2 + (regime_record * nregs) in
      let pos = ref chan_base in
      let colour_index c =
        let rec find i rs =
          match rs with
          | [] -> raise Not_found
          | r :: rest -> if Colour.equal r.Config.colour c then i else find (i + 1) rest
        in
        find 0 cfg.Config.regimes
      in
      let chan_descs =
        List.map
          (fun ch ->
            let area = ch.Config.capacity + 2 in
            let a = !pos in
            pos := !pos + (2 * area);
            let recv_area =
              if ch.Config.cut && not (List.mem Uncut_channel bugs) then a + area else a
            in
            (colour_index ch.Config.sender, colour_index ch.Config.receiver, a, recv_area))
          cfg.Config.channels
      in
      let rdt = !pos in
      validate_assembly cfg ~rdt ~nregs;
      (Isa.assemble (generate_kernel ~bugs ~nregs ~rdt ~chan_descs), rdt)
  in
  let extra = if impl = Assembly then (rdt_stride * nregs) + Array.length kcode else 0 in
  let layout, mem_words = compute_layout ~extra cfg in
  if mem_words > Machine.device_space then invalid_arg "Sue.build: memory exceeds address space";
  let m = Machine.create ~mem_words ~devices:(Array.to_list layout.dev_kinds) in
  let code_base = rdt + (rdt_stride * nregs) in
  let t =
    {
      layout;
      cfg;
      bug_list = bugs;
      m;
      impl;
      rdt_base = rdt;
      code_base;
      code_len = Array.length kcode;
      watchdog;
      counts =
        {
          ct_instrs = Array.make nregs 0;
          ct_traps = Array.make nregs 0;
          ct_swaps = Array.make nregs 0;
          ct_sent = Array.make nregs 0;
          ct_recvd = Array.make nregs 0;
          ct_switches = 0;
          ct_irqs_forwarded = 0;
          ct_wakes = 0;
          ct_stalls = 0;
          ct_inputs_latched = 0;
          ct_outputs_observed = 0;
          ct_kernel_instrs = 0;
          ct_fault_parks = 0;
          ct_guard_breaches = 0;
          ct_chan_repairs = 0;
          ct_watchdog_fires = 0;
          ct_panics = 0;
          ct_checkpoints = 0;
          ct_restarts = 0;
          ct_warm_reboots = 0;
          ct_fault_log = [];
          ct_fault_log_len = 0;
        };
      ckstore =
        {
          ck_init = Array.make nregs { ck_save = [||]; ck_part = Bytes.empty; ck_sum = 0 };
          ck_last = Array.make nregs None;
        };
    }
  in
  (* Load each regime's program at the bottom of its partition. *)
  List.iteri
    (fun r regime ->
      let code = Isa.assemble regime.Config.program in
      if Array.length code > layout.part_size.(r) then
        invalid_arg
          (Fmt.str "Sue.build: program of %a overflows its partition" Colour.pp regime.Config.colour);
      Array.iteri (fun i w -> Machine.write_phys m (layout.part_base.(r) + i) w) code)
    cfg.Config.regimes;
  (* Assembly: install the regime descriptor table and the kernel code. *)
  if impl = Assembly then begin
    for r = 0 to nregs - 1 do
      let e = rdt + (rdt_stride * r) in
      Machine.write_phys m (e + 0) layout.part_base.(r);
      Machine.write_phys m (e + 1) layout.part_size.(r);
      Machine.write_phys m (e + 2) (Array.length layout.dev_slots.(r));
      Array.iteri (fun k d -> Machine.write_phys m (e + 3 + k) d) layout.dev_slots.(r)
    done;
    Array.iteri (fun i w -> Machine.write_phys m (code_base + i) w) kcode
  end;
  (* Regime 0 runs first. *)
  set_current_index t 0;
  reset_countdown t;
  (* Arm the hardening: fence the partitions and seal every save area. *)
  Array.iter (fun a -> Machine.write_phys m a guard_pattern) layout.guards;
  for r = 0 to nregs - 1 do
    refresh_save_checksum t r
  done;
  (* Seed the checkpoint store with the as-built image of every regime, so
     a regime that parks before its first effect can still be restarted. *)
  for r = 0 to nregs - 1 do
    t.ckstore.ck_init.(r) <- capture_checkpoint t r ~live:false
  done;
  Machine.set_mmu m ~base:layout.part_base.(0) ~limit:layout.part_size.(0)
    ~dev_slots:layout.dev_slots.(0);
  t

let kernel_code_words t = t.code_len

let config t = t.cfg
let machine t = t.m
let bugs t = t.bug_list
let kernel_words t = t.layout.kernel_size

(* -- Kernel telemetry ------------------------------------------------------ *)

let kstats t =
  let per array = Array.to_list (Array.mapi (fun r n -> (t.layout.colours.(r), n)) array) in
  {
    ks_instrs = per t.counts.ct_instrs;
    ks_traps = per t.counts.ct_traps;
    ks_swaps = per t.counts.ct_swaps;
    ks_sent = per t.counts.ct_sent;
    ks_recvd = per t.counts.ct_recvd;
    ks_switches = t.counts.ct_switches;
    ks_irqs_forwarded = t.counts.ct_irqs_forwarded;
    ks_wakes = t.counts.ct_wakes;
    ks_stalls = t.counts.ct_stalls;
    ks_inputs_latched = t.counts.ct_inputs_latched;
    ks_outputs_observed = t.counts.ct_outputs_observed;
    ks_kernel_instrs = t.counts.ct_kernel_instrs;
    ks_fault_parks = t.counts.ct_fault_parks;
    ks_guard_breaches = t.counts.ct_guard_breaches;
    ks_chan_repairs = t.counts.ct_chan_repairs;
    ks_watchdog_fires = t.counts.ct_watchdog_fires;
    ks_panics = t.counts.ct_panics;
    ks_checkpoints = t.counts.ct_checkpoints;
    ks_restarts = t.counts.ct_restarts;
    ks_warm_reboots = t.counts.ct_warm_reboots;
  }

(* A single O(1) read summarizing the audit-level counters: the online
   monitor compares successive values to decide, without allocating a
   [kstats] record, whether the step it just watched detected anything. *)
let audit_count t =
  let c = t.counts in
  c.ct_fault_parks + c.ct_guard_breaches + c.ct_chan_repairs + c.ct_watchdog_fires + c.ct_panics
  + c.ct_restarts + c.ct_warm_reboots

let reset_kstats t =
  let c = t.counts in
  Array.fill c.ct_instrs 0 (Array.length c.ct_instrs) 0;
  Array.fill c.ct_traps 0 (Array.length c.ct_traps) 0;
  Array.fill c.ct_swaps 0 (Array.length c.ct_swaps) 0;
  Array.fill c.ct_sent 0 (Array.length c.ct_sent) 0;
  Array.fill c.ct_recvd 0 (Array.length c.ct_recvd) 0;
  c.ct_switches <- 0;
  c.ct_irqs_forwarded <- 0;
  c.ct_wakes <- 0;
  c.ct_stalls <- 0;
  c.ct_inputs_latched <- 0;
  c.ct_outputs_observed <- 0;
  c.ct_kernel_instrs <- 0;
  c.ct_fault_parks <- 0;
  c.ct_guard_breaches <- 0;
  c.ct_chan_repairs <- 0;
  c.ct_watchdog_fires <- 0;
  c.ct_panics <- 0;
  c.ct_checkpoints <- 0;
  c.ct_restarts <- 0;
  c.ct_warm_reboots <- 0;
  c.ct_fault_log <- [];
  c.ct_fault_log_len <- 0

let telemetry t =
  let reg = Sep_obs.Telemetry.create () in
  let s = kstats t in
  let set name v = Sep_obs.Telemetry.incr ~by:v (Sep_obs.Telemetry.counter reg name) in
  let per name pairs =
    List.iter (fun (c, n) -> set (Fmt.str "sue.%s.%s" name (Colour.name c)) n) pairs
  in
  per "instrs" s.ks_instrs;
  per "traps" s.ks_traps;
  per "swaps" s.ks_swaps;
  per "chan_words_sent" s.ks_sent;
  per "chan_words_recvd" s.ks_recvd;
  set "sue.switches" s.ks_switches;
  set "sue.irqs_forwarded" s.ks_irqs_forwarded;
  set "sue.wakes" s.ks_wakes;
  set "sue.stalls" s.ks_stalls;
  set "sue.inputs_latched" s.ks_inputs_latched;
  set "sue.outputs_observed" s.ks_outputs_observed;
  set "sue.kernel_instrs" s.ks_kernel_instrs;
  set "sue.fault_parks" s.ks_fault_parks;
  set "sue.guard_breaches" s.ks_guard_breaches;
  set "sue.chan_repairs" s.ks_chan_repairs;
  set "sue.watchdog_fires" s.ks_watchdog_fires;
  set "sue.panics" s.ks_panics;
  set "sue.checkpoints" s.ks_checkpoints;
  set "sue.restarts" s.ks_restarts;
  set "sue.warm_reboots" s.ks_warm_reboots;
  reg

let current_colour t = t.layout.colours.(current_index t)

let status_of_code s =
  if s = status_waiting then Abstract_regime.Waiting
  else if s = status_parked then Abstract_regime.Parked
  else Abstract_regime.Running

let regime_status t c =
  let r = Config.regime_index t.cfg c in
  status_of_code (get_status t r)

let device_owner t d = t.layout.colours.(t.layout.dev_owner.(d))

let device_slot t d =
  let owner = t.layout.dev_owner.(d) in
  let slots = t.layout.dev_slots.(owner) in
  let rec find i = if slots.(i) = d then i else find (i + 1) in
  (t.layout.colours.(owner), find 0)

(* -- Physical-layout accessors (for fault injection and diagnostics) ------- *)

let partition_bounds t c =
  let r = Config.regime_index t.cfg c in
  (t.layout.part_base.(r), t.layout.part_size.(r))

let save_area_base t c = t.layout.save_base.(Config.regime_index t.cfg c)
let guard_addrs t = Array.to_list t.layout.guards

let channel_area t id =
  if id >= 0 && id < Array.length t.layout.chans then begin
    let ci = t.layout.chans.(id) in
    Some (ci.ci_area_a, ci.ci_area_b, ci.ci_capacity)
  end
  else None

let kernel_code_region t = (t.code_base, t.code_len)

(* -- Context switching ---------------------------------------------------- *)

let save_context t r =
  let base = t.layout.save_base.(r) in
  for i = 0 to Isa.num_regs - 1 do
    if not (i = 3 && has_bug t Forget_register_save) then
      write_kw t (base + i) (Machine.get_reg t.m i)
  done;
  write_kw t (base + off_flags) (flags_word (Machine.get_flags t.m));
  refresh_save_checksum t r

let load_context t r =
  let base = t.layout.save_base.(r) in
  for i = 0 to Isa.num_regs - 1 do
    Machine.set_reg t.m i (read_kw t (base + i))
  done;
  Machine.set_flags t.m (flags_of_word (read_kw t (base + off_flags)));
  Machine.set_mmu t.m ~base:t.layout.part_base.(r) ~limit:t.layout.part_size.(r)
    ~dev_slots:t.layout.dev_slots.(r)

(* The first runnable regime after [from] in round-robin order ([from]
   itself last), or [-1] when none is. *)
let rec runnable_after t from k =
  let n = t.layout.nregs in
  if k > n then -1
  else begin
    let r = (from + k) mod n in
    if get_status t r = status_runnable then r else runnable_after t from (k + 1)
  end

let next_runnable t from = runnable_after t from 1

(* Context switch with the fail-safe restore path: a candidate whose save
   area no longer matches its checksum is parked (and the corruption
   audited) instead of being loaded, and the processor is offered to the
   next runnable regime. When every candidate is corrupt the kernel stays
   on the current regime, whose live context was never disturbed — a
   defined safe state rather than an exception. Guard words are swept on
   the same occasion: the switch is the kernel's natural audit point. *)
let switch_to t r =
  let cur = current_index t in
  if r <> cur then begin
    ignore (guard_sweep t);
    save_context t cur;
    (* SWAP-boundary checkpoint: the context just saved is exactly the
       state the regime would resume from, so it is the natural capture
       point. A parked regime is excluded — its live context is garbage
       from the instruction that parked it, not a state worth reviving. *)
    if get_status t cur <> status_parked then take_checkpoint t cur ~live:false;
    if has_bug t Partition_hole then
      Machine.write_phys t.m t.layout.part_base.(r) (Machine.get_reg t.m 0);
    let rec settle r =
      if r = cur then ()
      else if save_area_ok t r then begin
        t.counts.ct_switches <- t.counts.ct_switches + 1;
        if Sep_obs.Trace.enabled () then
          Sep_obs.Trace.instant ~cat:"sue"
            ~args:
              [
                ("from", Sep_util.Json.String (Colour.name t.layout.colours.(cur)));
                ("to", Sep_util.Json.String (Colour.name t.layout.colours.(r)));
              ]
            "switch";
        set_current_index t r;
        load_context t r;
        reset_countdown t
      end
      else begin
        record_fault t (Save_area_corrupt t.layout.colours.(r));
        t.counts.ct_fault_parks <- t.counts.ct_fault_parks + 1;
        set_status t r status_parked;
        let r' = next_runnable t r in
        if r' >= 0 then settle r'
      end
    in
    settle r
  end

let swap_away t =
  let cur = current_index t in
  let r = next_runnable t cur in
  if r >= 0 && r <> cur then switch_to t r

(* -- Recovery: regime restart and kernel warm reboot ------------------------ *)

type restart_result =
  | Restarted
  | Not_parked
  | Bad_checkpoint

let require_microcode t what =
  if t.impl <> Microcode then
    invalid_arg (Fmt.str "Sue.%s: requires the microcode kernel" what)

let best_checkpoint t r =
  match t.ckstore.ck_last.(r) with Some ck -> ck | None -> t.ckstore.ck_init.(r)

let restore_checkpoint t r ck =
  let base = t.layout.save_base.(r) in
  Array.iteri (fun i w -> write_kw t (base + i) w) ck.ck_save;
  Machine.write_phys_words t.m t.layout.part_base.(r) ck.ck_part;
  set_status t r status_runnable;
  refresh_save_checksum t r

(* Restore a parked regime from its last good checkpoint. Only the
   regime's own save area, partition and status are touched — channel
   contents and device registers are external to the "node" being
   rebooted, exactly as wires and peripherals survive a machine reboot in
   the distributed analogue — so a restart of one colour commutes with a
   restart of any other and is invisible to every other colour's Phi. *)
let restart t c =
  require_microcode t "restart";
  let r = Config.regime_index t.cfg c in
  if get_status t r <> status_parked then Not_parked
  else begin
    let ck = best_checkpoint t r in
    if not (checkpoint_ok ck) then begin
      record_fault t (Checkpoint_corrupt c);
      Bad_checkpoint
    end
    else begin
      restore_checkpoint t r ck;
      t.counts.ct_restarts <- t.counts.ct_restarts + 1;
      record_fault t (Regime_restart c);
      if current_index t = r then begin
        load_context t r;
        reset_countdown t
      end;
      Restarted
    end
  end

let all_parked t =
  let rec go r = r >= t.layout.nregs || (get_status t r = status_parked && go (r + 1)) in
  go 0

(* Warm reboot: recover from the all-parked halt a panic (or a park
   cascade) leaves behind. Every parked regime is restored from its
   checkpoint; the audit log is deliberately preserved — it is the record
   of why the reboot happened. Regimes whose checkpoints fail their
   checksum stay parked and are audited. Returns the restored colours. *)
let warm_reboot t =
  require_microcode t "warm_reboot";
  t.counts.ct_warm_reboots <- t.counts.ct_warm_reboots + 1;
  record_fault t Warm_reboot;
  (* re-establish the kernel's own fences before reviving anyone *)
  Array.iter (fun a -> Machine.write_phys t.m a guard_pattern) t.layout.guards;
  let cur = current_index t in
  let cur_was_runnable = get_status t cur = status_runnable in
  let restored = ref [] in
  for r = 0 to t.layout.nregs - 1 do
    if get_status t r = status_parked then begin
      let c = t.layout.colours.(r) in
      let ck = best_checkpoint t r in
      if checkpoint_ok ck then begin
        restore_checkpoint t r ck;
        t.counts.ct_restarts <- t.counts.ct_restarts + 1;
        record_fault t (Regime_restart c);
        restored := c :: !restored
      end
      else record_fault t (Checkpoint_corrupt c)
    end
  done;
  (* Hand the processor over: if the current regime was revived, resume
     it; if it stayed parked, offer the processor to the next runnable
     regime. A regime that was live all along keeps its live context. *)
  if not cur_was_runnable then begin
    if get_status t cur = status_runnable then begin
      load_context t cur;
      reset_countdown t
    end
    else begin
      let r = next_runnable t cur in
      if r >= 0 then begin
        set_current_index t r;
        load_context t r;
        reset_countdown t
      end
    end
  end;
  List.rev !restored

(* Test hook: damage the checkpoint [restart] would use, to exercise the
   Bad_checkpoint path. The damaged copy replaces it, so that a checkpoint,
   once taken, never changes: stores may share them. *)
let corrupt_checkpoint t c =
  let r = Config.regime_index t.cfg c in
  let ck = best_checkpoint t r in
  if Array.length ck.ck_save > 0 then begin
    let save = Array.copy ck.ck_save in
    save.(0) <- save.(0) lxor 0x40;
    t.ckstore.ck_last.(r) <- Some { ck with ck_save = save }
  end

(* -- Channels ------------------------------------------------------------- *)

let find_chan t id =
  if id >= 0 && id < Array.length t.layout.chans then Some t.layout.chans.(id) else None

let ring_push t area cap w =
  let head = read_kw t area and count = read_kw t (area + 1) in
  if count >= cap then false
  else begin
    write_kw t (area + 2 + ((head + count) mod cap)) w;
    write_kw t (area + 1) (count + 1);
    true
  end

(* In uncorrupted state head < cap; a flipped head word must yield an
   in-bounds (garbage) read, not an out-of-range trap that takes the whole
   machine model down. The corruption is audited and the head word
   repaired (mod cap), so one flip is reported once, like a guard
   breach. *)
let ring_pop t area cap =
  let head = read_kw t area and count = read_kw t (area + 1) in
  if count = 0 then None
  else begin
    let head =
      if head >= cap || head < 0 then begin
        let repaired = ((head mod cap) + cap) mod cap in
        t.counts.ct_chan_repairs <- t.counts.ct_chan_repairs + 1;
        record_fault t (Channel_head_corrupt area);
        write_kw t area repaired;
        repaired
      end
      else head
    in
    let w = read_kw t (area + 2 + head) in
    write_kw t area ((head + 1) mod cap);
    write_kw t (area + 1) (count - 1);
    Some w
  end

let ring_contents t area cap =
  let head = read_kw t area and count = read_kw t (area + 1) in
  List.init count (fun i -> read_kw t (area + 2 + ((head + i) mod cap)))

let recv_area t ci = if ci.ci_cut && not (has_bug t Uncut_channel) then ci.ci_area_b else ci.ci_area_a

(* The receive end induced by the intended design (bugs do not change the
   specification): the second buffer when the channel is cut. *)
let intended_recv_area ci = if ci.ci_cut then ci.ci_area_b else ci.ci_area_a

(* SEND and RECV return their result in R2. *)
let set_result t v = Machine.set_reg t.m 2 v

let do_send t cur =
  match find_chan t (Machine.get_reg t.m 0) with
  | Some ci when ci.ci_sender = cur ->
    if ring_push t ci.ci_area_a ci.ci_capacity (Machine.get_reg t.m 1) then begin
      t.counts.ct_sent.(cur) <- t.counts.ct_sent.(cur) + 1;
      set_result t 1
    end
    else set_result t 0
  | Some _ | None -> set_result t 2

let do_recv t cur =
  match find_chan t (Machine.get_reg t.m 0) with
  | Some ci when ci.ci_receiver = cur -> begin
    match ring_pop t (recv_area t ci) ci.ci_capacity with
    | Some w ->
      Machine.set_reg t.m 1 w;
      t.counts.ct_recvd.(cur) <- t.counts.ct_recvd.(cur) + 1;
      set_result t 1
    | None -> set_result t 0
  end
  | Some _ | None -> set_result t 2

(* -- Driving the assembly kernel ------------------------------------------- *)

(* A fault taken {e inside} the kernel (a trap or machine fault while
   running kernel code, or kernel code that never terminates) means the
   kernel itself can no longer be trusted. The fail-safe response is a
   panic: park every regime and leave the machine halted in kernel mode.
   Nothing is runnable afterwards, the execution stage stalls forever, and
   the audit log records why — a defined safe state in place of the old
   [failwith]. *)
let kernel_panic t reason =
  t.counts.ct_panics <- t.counts.ct_panics + 1;
  record_fault t (Kernel_panic reason);
  for r = 0 to t.layout.nregs - 1 do
    set_status t r status_parked
  done;
  (* flush the flight recorder: the ring now ends with the audit instant
     for this panic, preceded by the events that led up to it *)
  ignore (Sep_obs.Trace.dump ~reason:("kernel-panic: " ^ reason))

(* Model a whole-node power failure: every regime's live context is lost
   and the machine halts in the all-parked state, exactly the halt a panic
   leaves behind. The audit log survives (it is battery-backed in the
   analogue) and records the outage; {!warm_reboot} then restores every
   regime from its last checksummed checkpoint — the federation
   supervisor's failover path. *)
let crash t =
  require_microcode t "crash";
  kernel_panic t "node power failure"

let fault_reason = function
  | Machine.Illegal_instruction w -> Fmt.str "illegal instruction %04x" (w : int)
  | Machine.Mem_violation a -> Fmt.str "memory violation at %04x" a
  | Machine.Device_violation a -> Fmt.str "device violation at %04x" a

(* Run kernel machine code until it returns to user mode ([Rti]) or stalls
   ([Halt] with nobody runnable). Fuel guards against a runaway kernel —
   exhausting it is a kernel bug, not a regime behaviour, and panics. *)
let rec run_kernel_code t fuel =
  let fuel = fuel - 1 in
  if fuel <= 0 then kernel_panic t "kernel code did not terminate"
  else begin
    t.counts.ct_kernel_instrs <- t.counts.ct_kernel_instrs + 1;
    match Machine.step_user t.m with
    | Machine.Stepped -> run_kernel_code t fuel
    | Machine.Returned -> ()
    | Machine.Waiting -> ()
    | Machine.Trapped n -> kernel_panic t (Fmt.str "trap %d inside the kernel" n)
    | Machine.Faulted f -> kernel_panic t (Fmt.str "fault inside the kernel: %s" (fault_reason f))
  end

let run_kernel t =
  let before = current_index t in
  run_kernel_code t 20_000;
  if current_index t <> before then begin
    t.counts.ct_switches <- t.counts.ct_switches + 1;
    if Sep_obs.Trace.enabled () then
      Sep_obs.Trace.instant ~cat:"sue"
        ~args:
          [
            ("from", Sep_util.Json.String (Colour.name t.layout.colours.(before)));
            ("to", Sep_util.Json.String (Colour.name t.layout.colours.(current_index t)));
          ]
        "switch"
  end

let enter_and_run t cause =
  Machine.enter_kernel t.m ~cause ~vector:t.code_base;
  run_kernel t

(* -- The INPUT stage ------------------------------------------------------ *)

let latch t d w =
  let d = if has_bug t Misroute_device_input then (d + 1) mod Array.length t.layout.dev_kinds else d in
  match t.layout.dev_kinds.(d) with
  | Machine.Rx ->
    let w = if has_bug t Input_crosstalk then Word.logxor w (Machine.get_reg t.m 0) else w in
    t.counts.ct_inputs_latched <- t.counts.ct_inputs_latched + 1;
    Machine.device_input t.m d w
  | Machine.Tx | Machine.Xform _ -> ()

let rec latch_all t = function
  | [] -> ()
  | (d, w) :: rest ->
    latch t d w;
    latch_all t rest

(* Field a raised interrupt: wake the waiting owner. *)
let field t d =
  Machine.field_irq t.m d;
  t.counts.ct_irqs_forwarded <- t.counts.ct_irqs_forwarded + 1;
  let owner = t.layout.dev_owner.(d) in
  let owner = if has_bug t Misroute_interrupt then (owner + 1) mod t.layout.nregs else owner in
  if get_status t owner = status_waiting then begin
    t.counts.ct_wakes <- t.counts.ct_wakes + 1;
    set_status t owner status_runnable
  end

let deliver_inputs t arrivals =
  (* Busy Tx wires complete their transmission. *)
  Machine.complete_transmissions t.m;
  latch_all t arrivals;
  for d = 0 to Array.length t.layout.dev_kinds - 1 do
    if Machine.irq_pending t.m d then field t d
  done;
  (* If the processor was stalled, hand it to a woken regime. For the
     assembly kernel, the stall is machine code halted inside its scan
     loop: the interrupt resumes the kernel, which rescans and returns
     into the woken regime. *)
  match t.impl with
  | Microcode ->
    let cur = current_index t in
    if get_status t cur <> status_runnable then begin
      let r = next_runnable t cur in
      if r >= 0 then switch_to t r
    end
  | Assembly ->
    if Machine.mode t.m = Machine.Kernel then begin
      let any_runnable =
        let rec scan r = r < t.layout.nregs && (get_status t r = status_runnable || scan (r + 1)) in
        scan 0
      in
      if any_runnable then run_kernel t
    end

(* -- The operation stage -------------------------------------------------- *)

let bug_stalls t cur =
  has_bug t Schedule_on_foreign_state && cur <> 0 && read_kw t t.layout.save_base.(0) land 1 = 1

(* A level-triggered interrupt request: an Rx device holding an unread
   word keeps its line asserted. *)
let rx_holds_word t d =
  match t.layout.dev_kinds.(d) with
  | Machine.Rx -> Machine.device_status t.m d = 1
  | Machine.Tx | Machine.Xform _ -> false

let rec rx_pending_from t r d =
  d < Array.length t.layout.dev_kinds
  && ((t.layout.dev_owner.(d) = r && rx_holds_word t d) || rx_pending_from t r (d + 1))

let rx_pending t r = rx_pending_from t r 0

(* Trap instants carry the trapping colour and trap number; SWAP (trap 0)
   gets its own event name since it is the scheduling boundary the causal
   trace most often pivots on. *)
let trace_trap t cur n =
  if Sep_obs.Trace.enabled () then
    Sep_obs.Trace.instant ~cat:"sue"
      ~args:
        [
          ("colour", Sep_util.Json.String (Colour.name t.layout.colours.(cur)));
          ("number", Sep_util.Json.Int n);
        ]
      (if n = 0 then "swap" else "trap")

let exec_op_microcode t =
  let cur = current_index t in
  if get_status t cur <> status_runnable || bug_stalls t cur then
    t.counts.ct_stalls <- t.counts.ct_stalls + 1
  else begin
    t.counts.ct_instrs.(cur) <- t.counts.ct_instrs.(cur) + 1;
    match Machine.step_user t.m with
    | Machine.Stepped -> begin
      (* Output-commit fence: any instruction whose effect escapes the
         regime — one of its device registers changing (a Tx write arming
         a transmission, an Rx read consuming a latched word) or a
         successful channel transfer — is followed by a checkpoint. A later
         restart then replays only pure local computation, never
         duplicating or losing an observable effect. *)
      if Machine.devices_changed t.m t.layout.dev_slots.(cur) then take_checkpoint t cur ~live:true;
      (* preemptive configurations: charge the quantum and, when it is
         spent, take the processor back *)
      match (t.cfg.Config.quantum, t.watchdog) with
      | Some q, _ ->
        let left = read_kw t quantum_addr - 1 in
        if left <= 0 then begin
          write_kw t quantum_addr q;
          swap_away t
        end
        else write_kw t quantum_addr left
      | None, Some w ->
        (* watchdog: a regime that never yields is forced off the
           processor after [w] instructions, audited but not parked —
           hogging is a liveness fault, not a corruption *)
        let left = read_kw t quantum_addr - 1 in
        if left <= 0 then begin
          write_kw t quantum_addr w;
          t.counts.ct_watchdog_fires <- t.counts.ct_watchdog_fires + 1;
          record_fault t (Watchdog_expired t.layout.colours.(cur));
          swap_away t
        end
        else write_kw t quantum_addr left
      | None, None -> ()
    end
    | Machine.Waiting ->
      (* WAIT falls through when an interrupt is already asserted,
         avoiding the classic poll-then-sleep race. *)
      if rx_pending t cur then ()
      else begin
        set_status t cur status_waiting;
        swap_away t
      end
    | Machine.Trapped 0 ->
      t.counts.ct_traps.(cur) <- t.counts.ct_traps.(cur) + 1;
      t.counts.ct_swaps.(cur) <- t.counts.ct_swaps.(cur) + 1;
      trace_trap t cur 0;
      swap_away t
    | Machine.Trapped 1 ->
      t.counts.ct_traps.(cur) <- t.counts.ct_traps.(cur) + 1;
      trace_trap t cur 1;
      do_send t cur;
      if Machine.get_reg t.m 2 = 1 then take_checkpoint t cur ~live:true
    | Machine.Trapped 2 ->
      t.counts.ct_traps.(cur) <- t.counts.ct_traps.(cur) + 1;
      trace_trap t cur 2;
      do_recv t cur;
      if Machine.get_reg t.m 2 = 1 then take_checkpoint t cur ~live:true
    | Machine.Trapped _ | Machine.Returned | Machine.Faulted _ ->
      (* Returned cannot occur in user mode (Rti faults there); treat it
         like any other illegal action *)
      set_status t cur status_parked;
      swap_away t
  end

let exec_op_assembly t =
  if Machine.mode t.m = Machine.Kernel then
    (* total stall: kernel halted in its scan loop *)
    t.counts.ct_stalls <- t.counts.ct_stalls + 1
  else begin
    let cur = current_index t in
    if get_status t cur <> status_runnable || bug_stalls t cur then
      t.counts.ct_stalls <- t.counts.ct_stalls + 1
    else begin
      t.counts.ct_instrs.(cur) <- t.counts.ct_instrs.(cur) + 1;
      match Machine.step_user t.m with
      | Machine.Stepped -> ()
      | Machine.Trapped n when n <= 2 ->
        t.counts.ct_traps.(cur) <- t.counts.ct_traps.(cur) + 1;
        if n = 0 then t.counts.ct_swaps.(cur) <- t.counts.ct_swaps.(cur) + 1;
        trace_trap t cur n;
        enter_and_run t n;
        (* The kernel machine code performs the channel copy itself; its
           effect is read back from the trapping regime's saved R2. *)
        if n > 0 && read_kw t (t.layout.save_base.(cur) + 2) = 1 then begin
          if n = 1 then t.counts.ct_sent.(cur) <- t.counts.ct_sent.(cur) + 1
          else t.counts.ct_recvd.(cur) <- t.counts.ct_recvd.(cur) + 1
        end
      | Machine.Trapped _ -> enter_and_run t Machine.cause_bad_trap
      | Machine.Waiting ->
        (* WAIT falls through on an asserted Rx line, as in microcode *)
        if rx_pending t cur then () else enter_and_run t Machine.cause_wait
      | Machine.Returned | Machine.Faulted _ -> enter_and_run t Machine.cause_fault
    end
  end

let span_exec = Sep_obs.Span.make "sue.exec_op"

let exec_op_impl t =
  match t.impl with
  | Microcode -> exec_op_microcode t
  | Assembly -> exec_op_assembly t

let exec_op t =
  if Sep_obs.Span.enabled () then Sep_obs.Span.time span_exec (fun () -> exec_op_impl t)
  else exec_op_impl t

(* -- Output observation --------------------------------------------------- *)

(* The busy Tx wires from device [d] down, consed onto [acc]: built from
   the top so the list comes out in device order, and [[]] when no wire is
   busy. *)
let rec busy_wires t leak d acc =
  if d < 0 then acc
  else begin
    let acc =
      match t.layout.dev_kinds.(d) with
      | Machine.Tx when Machine.device_status t.m d = 1 ->
        (d, Word.logor (Machine.device_data t.m d) leak) :: acc
      | Machine.Tx | Machine.Rx | Machine.Xform _ -> acc
    in
    busy_wires t leak (d - 1) acc
  end

let outputs t =
  let leak =
    if has_bug t Output_leak then begin
      (* Crosstalk from the next regime's saved R1 onto every busy wire. *)
      let next = (current_index t + 1) mod t.layout.nregs in
      read_kw t (t.layout.save_base.(next) + 1)
    end
    else 0
  in
  busy_wires t leak (Array.length t.layout.dev_kinds - 1) []

let step t arrivals =
  if Sep_obs.Trace.enabled () then
    Sep_obs.Trace.instant ~cat:"sue"
      ~args:
        [ ("colour", Sep_util.Json.String (Colour.name t.layout.colours.(current_index t))) ]
      "step";
  let observed = outputs t in
  t.counts.ct_outputs_observed <- t.counts.ct_outputs_observed + List.length observed;
  deliver_inputs t arrivals;
  exec_op t;
  observed

let run t ~steps ~inputs =
  let rec loop n acc =
    if n >= steps then List.rev acc
    else begin
      let out = step t (inputs n) in
      loop (n + 1) (if out = [] then acc else out :: acc)
    end
  in
  loop 0 []

(* -- Abstraction ----------------------------------------------------------- *)

let phi t c =
  let r = Config.regime_index t.cfg c in
  let mem = Machine.read_phys_slice t.m t.layout.part_base.(r) t.layout.part_size.(r) in
  let live = current_index t = r && Machine.mode t.m = Machine.User in
  let regs, flag_z, flag_n =
    if live then
      (Array.init Isa.num_regs (Machine.get_reg t.m), fst (Machine.get_flags t.m), snd (Machine.get_flags t.m))
    else begin
      let sb = t.layout.save_base.(r) in
      let z, n = flags_of_word (read_kw t (sb + off_flags)) in
      (Machine.read_phys_slice t.m sb Isa.num_regs, z, n)
    end
  in
  let view d =
    let data, status = Machine.device_regs t.m d in
    {
      Abstract_regime.dv_kind = t.layout.dev_kinds.(d);
      dv_data = data;
      dv_status = status;
      dv_irq = Machine.irq_pending t.m d;
    }
  in
  let devices = Array.map view t.layout.dev_slots.(r) in
  (* r's ends, in channel order: [owner] picks the endpoint, [area] the
     ring that end reads *)
  let ends owner area =
    Array.of_list
      (Array.fold_right
         (fun ci acc ->
           if owner ci = r then
             {
               Abstract_regime.ce_chan = ci.ci_id;
               ce_capacity = ci.ci_capacity;
               ce_contents = ring_contents t (area ci) ci.ci_capacity;
             }
             :: acc
           else acc)
         t.layout.chans [])
  in
  {
    Abstract_regime.mem;
    regs;
    flag_z;
    flag_n;
    status = status_of_code (get_status t r);
    devices;
    sends = ends (fun ci -> ci.ci_sender) (fun ci -> ci.ci_area_a);
    recvs = ends (fun ci -> ci.ci_receiver) intended_recv_area;
  }

(* -- Operation naming ------------------------------------------------------ *)

(* Peek at the word the fetch would return, without the side effects of a
   real device read. *)
let peek_fetch t r pc =
  if pc < t.layout.part_size.(r) then Some (Machine.read_phys t.m (t.layout.part_base.(r) + pc))
  else if pc >= Machine.device_space then begin
    let off = pc - Machine.device_space in
    let slot = off lsr 1 and is_status = off land 1 = 1 in
    let slots = t.layout.dev_slots.(r) in
    if slot < Array.length slots then
      Some (if is_status then Machine.device_status t.m slots.(slot) else Machine.device_data t.m slots.(slot))
    else None
  end
  else None

(* [c ^ ":" ^ Printf.sprintf "%04x" w] for a 16-bit word, built in one
   allocation: the checker names the next op of every state it explores. *)
let op_name c w =
  let n = String.length c in
  let b = Bytes.create (n + 5) in
  Bytes.blit_string c 0 b 0 n;
  Bytes.set b n ':';
  for i = 0 to 3 do
    Bytes.set b (n + 1 + i) "0123456789abcdef".[(w lsr (12 - (4 * i))) land 0xf]
  done;
  Bytes.unsafe_to_string b

let nextop_name t =
  let cur = current_index t in
  let c = Colour.name t.layout.colours.(cur) in
  if Machine.mode t.m = Machine.Kernel || get_status t cur <> status_runnable || bug_stalls t cur
  then c ^ ":stall"
  else begin
    match peek_fetch t cur (Machine.get_reg t.m Isa.pc_reg) with
    | None -> c ^ ":pcfault"
    | Some w -> op_name c w
  end

(* -- Snapshot interface ---------------------------------------------------- *)

let copy t = { t with m = Machine.copy t.m }
let equal a b = Machine.equal a.m b.m
let hash t = Machine.hash t.m

let pp ppf t =
  Fmt.pf ppf "@[<v>sue(%a): current=%a op=%s@ %a@]" pp_impl t.impl Colour.pp (current_colour t)
    (nextop_name t) Machine.pp t.m

(* -- Scrambling, for randomized checking ----------------------------------- *)

let scramble_others rng t c =
  let t = copy t in
  let rng = Sep_util.Prng.copy rng in
  let word () = Sep_util.Prng.int rng 0x10000 in
  let c_idx = Config.regime_index t.cfg c in
  let cur = current_index t in
  Array.iteri
    (fun r base ->
      if r <> c_idx then begin
        (* partition contents *)
        for i = 0 to t.layout.part_size.(r) - 1 do
          Machine.write_phys t.m (base + i) (word ())
        done;
        (* save area, flags, status *)
        let sb = t.layout.save_base.(r) in
        for i = 0 to Isa.num_regs - 1 do
          write_kw t (sb + i) (word ())
        done;
        write_kw t (sb + off_flags) (Sep_util.Prng.int rng 4);
        write_kw t (sb + off_status) (Sep_util.Prng.int rng 3);
        (* reseal: the scrambled contents are the state under test, not a
           corruption for the hardening to flag *)
        refresh_save_checksum t r
      end)
    t.layout.part_base;
  (* Live registers and flags belong to whoever is current — unless the
     machine is stalled in kernel mode, in which case they are the
     kernel's own working registers (outside every Phi, and resumed by
     the kernel itself, so they must not be disturbed). *)
  if cur <> c_idx && Machine.mode t.m = Machine.User then begin
    for i = 0 to Isa.num_regs - 1 do
      Machine.set_reg t.m i (word ())
    done;
    Machine.set_flags t.m (Sep_util.Prng.bool rng, Sep_util.Prng.bool rng)
  end;
  (* devices of other regimes *)
  Array.iteri
    (fun d owner ->
      if owner <> c_idx then
        Machine.set_device_regs t.m d ~data:(word ()) ~status:(Sep_util.Prng.int rng 2))
    t.layout.dev_owner;
  (* channel ends not visible to c: the send end belongs to the sender;
     the receive end (second area when cut) belongs to the receiver; an
     uncut channel's single area is visible to both endpoints. *)
  let scramble_area area cap =
    write_kw t area (Sep_util.Prng.int rng cap);
    write_kw t (area + 1) (Sep_util.Prng.int rng (cap + 1));
    for i = 0 to cap - 1 do
      write_kw t (area + 2 + i) (word ())
    done
  in
  Array.iter
    (fun ci ->
      let sender_is_c = ci.ci_sender = c_idx and receiver_is_c = ci.ci_receiver = c_idx in
      if ci.ci_cut then begin
        if not sender_is_c then scramble_area ci.ci_area_a ci.ci_capacity;
        if not receiver_is_c then scramble_area ci.ci_area_b ci.ci_capacity
      end
      else begin
        if not (sender_is_c || receiver_is_c) then scramble_area ci.ci_area_a ci.ci_capacity;
        scramble_area ci.ci_area_b ci.ci_capacity
      end)
    t.layout.chans;
  t

(* -- Appendix-model packaging ---------------------------------------------- *)

let system_of_kernel ~sanction_channels ~inputs t0 =
  let cfg = t0.cfg in
  let owner_name t d = Colour.name (device_owner t d) in
  let extract c pairs = List.filter (fun (d, _) -> owner_name t0 d = Colour.name c) pairs in
  let nextop s =
    let name = nextop_name s in
    { System.op_name = name; op_apply = (fun s -> let s' = copy s in exec_op s'; s') }
  in
  let abop c op =
    let prefix = Colour.name c ^ ":" in
    let is_mine = String.length op.System.op_name >= String.length prefix
                  && String.sub op.System.op_name 0 (String.length prefix) = prefix in
    if not is_mine then { System.abop_name = "id"; abop_apply = Fun.id }
    else if op.System.op_name = prefix ^ "stall" then { System.abop_name = "stall"; abop_apply = Fun.id }
    else { System.abop_name = op.System.op_name; abop_apply = Abstract_regime.step }
  in
  let pp_pairs ppf pairs =
    Fmt.pf ppf "%a" Fmt.(Dump.list (Dump.pair int int)) pairs
  in
  (* Condition 2's connected-system weakening, opt-in. Proof of
     Separability proper demands strict invisibility, and the uncut
     system rightly fails it (E5): a send lands in the very ring the
     receiver's abstraction reads, and a receive drains the ring the
     sender's abstraction reads (flow-control backflow). When the
     caller knowingly checks a *connected* system — a federation shard
     with live intra-shard channels — those two flows are exactly what
     the channel declaration sanctions. Sanction the interference iff
     the whole change is confined to the contents of declared uncut
     channels between [active] and [viewer], at the ends [viewer]
     sees: mask those contents on both sides and demand full equality
     of everything that remains. *)
  let sanctioned_chans active viewer =
    List.fold_left
      (fun (send_ids, recv_ids) (ch : Config.channel) ->
        if ch.Config.cut then (send_ids, recv_ids)
        else if Colour.equal ch.Config.sender viewer
                && Colour.equal ch.Config.receiver active
        then (ch.Config.chan_id :: send_ids, recv_ids)
        else if Colour.equal ch.Config.sender active
                && Colour.equal ch.Config.receiver viewer
        then (send_ids, ch.Config.chan_id :: recv_ids)
        else (send_ids, recv_ids))
      ([], []) cfg.Config.channels
  in
  let mask_ends ids ends =
    Array.map
      (fun ce ->
        if List.mem ce.Abstract_regime.ce_chan ids then
          { ce with Abstract_regime.ce_contents = [] }
        else ce)
      ends
  in
  let mask (send_ids, recv_ids) (a : Abstract_regime.t) =
    { a with
      Abstract_regime.sends = mask_ends send_ids a.Abstract_regime.sends;
      recvs = mask_ends recv_ids a.Abstract_regime.recvs
    }
  in
  let sanctioned_interference active viewer before after =
    sanction_channels
    &&
    match sanctioned_chans active viewer with
    | [], [] -> false
    | ids -> Abstract_regime.equal (mask ids before) (mask ids after)
  in
  {
    System.name = "sue";
    colours = Config.colours cfg;
    initial = [ t0 ];
    inputs;
    ops = [];
    colour_of = current_colour;
    input = (fun s i -> let s' = copy s in deliver_inputs s' i; s');
    nextop;
    output = outputs;
    extract_input = extract;
    extract_output = extract;
    abstract = (fun c s -> phi s c);
    abop;
    sanctioned_interference;
    equal_state = equal;
    hash_state = hash;
    equal_abstate = Abstract_regime.equal;
    hash_abstate = Abstract_regime.hash;
    equal_proj = ( = );
    pp_state = pp;
    pp_input = pp_pairs;
    pp_abstate = Abstract_regime.pp;
  }

let to_system ?(bugs = []) ?(impl = Microcode) ?(sanction_channels = false) ~inputs cfg =
  system_of_kernel ~sanction_channels ~inputs (build ~bugs ~impl cfg)

(* -- Queries off the step's path ------------------------------------------

   The kernel step's speed is sensitive to where its machine code lands,
   so queries that neither the step nor the checker run are defined here,
   after both, where adding one moves none of their code. *)

let any_parked t =
  let rec go r = r < t.layout.nregs && (get_status t r = status_parked || go (r + 1)) in
  go 0

(* The counters' arrays and the checkpoint slots are copied once, for all
   the copies; the audit log is an immutable list, and checkpoints never
   change once taken, so both are shared until a copy records or takes
   one of its own. Nothing the kernel does during INPUT or an operation
   reads a counter or a checkpoint, so sharing one set between the
   copies changes none of their runs, and a kept copy costs no more than
   its machine. *)
let detached_copies t =
  let c = t.counts in
  let counts =
    {
      c with
      ct_instrs = Array.copy c.ct_instrs;
      ct_traps = Array.copy c.ct_traps;
      ct_swaps = Array.copy c.ct_swaps;
      ct_sent = Array.copy c.ct_sent;
      ct_recvd = Array.copy c.ct_recvd;
    }
  in
  let ckstore = { t.ckstore with ck_last = Array.copy t.ckstore.ck_last } in
  fun () -> { t with m = Machine.copy t.m; counts; ckstore }
