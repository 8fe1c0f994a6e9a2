module Colour = Sep_model.Colour
module Component = Sep_model.Component
module Topology = Sep_model.Topology
module Machine = Sep_hw.Machine
module Isa = Sep_hw.Isa
module Sue = Sep_core.Sue
module Config = Sep_core.Config
module Scenarios = Sep_core.Scenarios
module Abstract_regime = Sep_core.Abstract_regime
module Net = Sep_distributed.Net
module Recover = Sep_recover.Recover
module Prng = Sep_util.Prng
module J = Sep_util.Json

type outcome =
  | Masked
  | Detected_safe
  | Recovered_safe
  | Violating

let pp_outcome ppf = function
  | Masked -> Fmt.string ppf "masked"
  | Detected_safe -> Fmt.string ppf "detected-safe"
  | Recovered_safe -> Fmt.string ppf "recovered-safe"
  | Violating -> Fmt.string ppf "separation-violating"

(* -- The outcome lattice ---------------------------------------------------- *)

let outcome_of ~violating ~recovered ~noticed =
  if violating then Violating
  else if recovered then Recovered_safe
  else if noticed then Detected_safe
  else Masked

let tally outcome cases =
  List.fold_left
    (fun (m, d, r, v) c ->
      match outcome c with
      | Masked -> (m + 1, d, r, v)
      | Detected_safe -> (m, d + 1, r, v)
      | Recovered_safe -> (m, d, r + 1, v)
      | Violating -> (m, d, r, v + 1))
    (0, 0, 0, 0) cases

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> x = y && is_prefix a' b'

(* Order-preserving comparison, step indices deliberately dropped: parking
   or slowing one regime shifts every other regime's timing (the paper
   excludes timing channels), so observing more or fewer words of the
   same sequence is not divergence — different words are. *)
let prefix_compatible a b = is_prefix a b || is_prefix b a

let colour_diverged ~owner reference faulty c =
  List.exists2
    (fun (d, ref_words) (_, got_words) ->
      Colour.equal (owner d) c && not (prefix_compatible ref_words got_words))
    reference faulty

type case = {
  plan : Fault_plan.t;
  target : Colour.t option;
  outcome : outcome;
  victim_perturbed : bool;
  detections : Sue.kernel_fault list;
  recoveries : Sue.kernel_fault list;
  watchdog_delta : int;
}

type scenario_report = {
  label : string;
  seed : int;
  steps : int;
  watchdog : int option;
  cases : case list;
}

type report = {
  rp_seed : int;
  rp_scenarios : scenario_report list;
}

(* -- Subjects -------------------------------------------------------------- *)

(* The preemptive instance stripped of its quantum: its regimes never
   yield, so without the watchdog the second one would starve forever.
   Faults against this subject exercise the watchdog-forced switch as the
   occasion on which save-area corruption of a starving regime is
   caught. *)
let greedy_watchdog_quantum = 6

let greedy_watchdog =
  let p = Scenarios.preemptive in
  {
    Scenarios.label = "greedy-watchdog";
    cfg = { p.Scenarios.cfg with Config.quantum = None };
    alphabet = p.Scenarios.alphabet;
  }

let catalogue =
  List.map (fun sc -> (sc, None)) Scenarios.all @ [ (greedy_watchdog, Some greedy_watchdog_quantum) ]

let subjects = List.map fst catalogue

(* -- Driving a kernel ---------------------------------------------------------- *)

let inert_program = [ Isa.Label "loop"; Isa.Instr (Isa.Trap 0); Isa.Branch "loop" ]

let inert_except keep (cfg : Isa.stmt list Config.t) =
  {
    cfg with
    Config.regimes =
      List.map
        (fun (r : _ Config.regime) ->
          if keep r.Config.colour then r else { r with Config.program = inert_program })
        cfg.Config.regimes;
  }

let remove_one x xs =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest -> if y = x then List.rev_append acc rest else go (y :: acc) rest
  in
  go [] xs

(* Flow-controlled delivery: a dripped word queues until its Rx latch is
   free (status 0), so each regime consumes the same word sequence no
   matter how the processor is shared. Without the handshake the
   external world doubles as a clock — parking one regime shifts when
   another samples its latch, and that is the timing channel the paper
   excludes, not a separation violation. *)
let drive ?step ?(after = ignore) t ~steps arrivals =
  let step = Option.value step ~default:(fun _ input -> Sue.step t input) in
  let m = Sue.machine t in
  let ndev = Machine.num_devices m in
  let queues = Array.init ndev (fun _ -> Queue.create ()) in
  let per_dev = Array.make ndev [] in
  for n = 0 to steps - 1 do
    List.iter (fun (d, w) -> if d >= 0 && d < ndev then Queue.add w queues.(d)) (arrivals n);
    let input =
      List.concat
        (List.init ndev (fun d ->
             if (not (Queue.is_empty queues.(d))) && snd (Machine.device_regs m d) = 0 then
               [ (d, Queue.pop queues.(d)) ]
             else []))
    in
    List.iter (fun (d, w) -> per_dev.(d) <- w :: per_dev.(d)) (step n input);
    after ()
  done;
  List.init ndev (fun d -> (d, List.rev per_dev.(d)))

(* Three ways: recovery actions (restart, warm reboot), liveness events
   (watchdog fires), corruption detections (everything else, checkpoint
   corruption included). Without a supervisor the recovery bucket is
   empty. *)
let split_audit faults =
  let recoveries, rest =
    List.partition (function Sue.Regime_restart _ | Sue.Warm_reboot -> true | _ -> false) faults
  in
  let corrupt, wd = List.partition (function Sue.Watchdog_expired _ -> false | _ -> true) rest in
  (recoveries, corrupt, List.length wd)

(* -- The stepping wrapper -------------------------------------------------- *)

type runner = {
  t : Sue.t;
  mutable schedule : (int * Fault_plan.fault) list;
  mutable pending_drops : int list;  (* devices whose next arrival is lost *)
  mutable stuck : int list;  (* devices dead from their fault onward *)
  mutable dup_after : int list;  (* IRQs to re-assert after this step *)
}

let flip_phys m a bit = Machine.write_phys m a (Machine.read_phys m a lxor (1 lsl bit))

let strike t (fault : Fault_plan.fault) =
  let m = Sue.machine t in
  match fault with
  | Mem_flip { colour; offset; bit } ->
    let base, size = Sue.partition_bounds t colour in
    flip_phys m (base + (offset mod size)) bit
  | Saved_reg_flip { colour; slot; bit } -> flip_phys m (Sue.save_area_base t colour + slot) bit
  | Guard_smash { index } ->
    let guards = Array.of_list (Sue.guard_addrs t) in
    flip_phys m guards.(index mod Array.length guards) 7
  | Chan_flip { chan; which; word; bit } -> begin
    match Sue.channel_area t chan with
    | None -> ()
    | Some (send_area, recv_area, cap) ->
      let area = match which with Fault_plan.Send_end -> send_area | Fault_plan.Recv_end -> recv_area in
      flip_phys m (area + (word mod (cap + 2))) bit
  end
  | Rx_latch_flip { device; bit } ->
    let data, status = Machine.device_regs m device in
    Machine.set_device_regs m device ~data:(data lxor (1 lsl bit)) ~status
  | Spurious_irq { device } -> Machine.raise_irq m device
  | Drop_input _ | Duplicate_irq _ | Stuck_device _ | Shard_crash _ | Link_partition _
  | Frame_tamper _ ->
    ()

let apply r fault =
  match (fault : Fault_plan.fault) with
  | Drop_input { device } -> r.pending_drops <- device :: r.pending_drops
  | Duplicate_irq { device } -> r.dup_after <- device :: r.dup_after
  | Stuck_device { device } -> r.stuck <- device :: r.stuck
  (* Node-level faults have no meaning against a single kernel; the
     federation driver ({!Sep_fed.Fed}) applies them. Single-kernel plans
     never contain them (no [node_space] is ever passed here). *)
  | Shard_crash _ | Link_partition _ | Frame_tamper _ -> ()
  | Mem_flip _ | Saved_reg_flip _ | Guard_smash _ | Chan_flip _ | Rx_latch_flip _
  | Spurious_irq _ ->
    strike r.t fault

let force_stuck r =
  let m = Sue.machine r.t in
  List.iter
    (fun d ->
      let data, _ = Machine.device_regs m d in
      Machine.set_device_regs m d ~data ~status:0)
    r.stuck

(* One wrapped step: due faults strike between instructions (before the
   step), dropped arrivals never reach the latch, dead devices stay dead,
   duplicated IRQs re-assert after the fielding they duplicate. *)
let step r n input =
  let due, rest = List.partition (fun (at, _) -> at <= n) r.schedule in
  r.schedule <- rest;
  List.iter (fun (_, f) -> apply r f) due;
  let input =
    List.filter
      (fun (d, _) ->
        if List.mem d r.stuck then false
        else if List.mem d r.pending_drops then begin
          r.pending_drops <- remove_one d r.pending_drops;
          false
        end
        else true)
      input
  in
  force_stuck r;
  let out = Sue.step r.t input in
  force_stuck r;
  let m = Sue.machine r.t in
  List.iter (fun d -> Machine.raise_irq m d) r.dup_after;
  r.dup_after <- [];
  out

(* -- Observation ------------------------------------------------------------- *)

type observation = {
  ob_outputs : (int * int list) list;  (* per Tx device, words in order *)
  ob_status : (Colour.t * Abstract_regime.status) list;
  ob_detections : Sue.kernel_fault list;  (* corruption detections *)
  ob_recoveries : Sue.kernel_fault list;  (* restarts and warm reboots *)
  ob_wd_fires : int;
}

(* [hook] is handed the freshly built kernel and returns the per-step
   callback, invoked after every wrapped step — the seam the online
   separability watch attaches through. *)
let observe_run ?watchdog ?recover ?(hook = fun _ () -> ()) (sc : Scenarios.instance) ~steps
    ~plan =
  let t = Sue.build ?watchdog sc.Scenarios.cfg in
  let on_step = hook t in
  let supervisor = Option.map (fun policy -> Recover.create ~policy t) recover in
  let supervise () =
    match supervisor with None -> () | Some sup -> ignore (Recover.tick sup)
  in
  let r =
    {
      t;
      schedule = (match plan with Some (p : Fault_plan.t) -> p.Fault_plan.faults | None -> []);
      pending_drops = [];
      stuck = [];
      dup_after = [];
    }
  in
  let ob_outputs =
    drive ~step:(step r)
      ~after:(fun () -> on_step (); supervise ())
      t ~steps (Scenarios.drip sc.Scenarios.alphabet)
  in
  ignore (Sue.guard_sweep t);
  supervise ();
  let ob_recoveries, ob_detections, ob_wd_fires = split_audit (Sue.drain_faults t) in
  let ob_status = List.map (fun c -> (c, Sue.regime_status t c)) (Config.colours sc.Scenarios.cfg) in
  ({ ob_outputs; ob_status; ob_detections; ob_recoveries; ob_wd_fires }, t)

(* -- Classification -------------------------------------------------------- *)

let classify ~cfg ~reference ~faulty ~t (plan : Fault_plan.t) =
  let target =
    match plan.Fault_plan.faults with
    | (_, f) :: _ -> Fault_plan.target cfg f
    | [] -> None
  in
  (* A multi-fault plan strikes several domains; only divergence of a
     colour targeted by NO fault in the plan is a separation violation.
     [target] stays the first fault's (the reporting key); the union is
     what classification quantifies over. For single-fault plans the two
     coincide. *)
  let targeted c =
    List.exists
      (fun (_, f) ->
        match Fault_plan.target cfg f with Some v -> Colour.equal v c | None -> false)
      plan.Fault_plan.faults
  in
  let colours = Config.colours cfg in
  let diverged =
    colour_diverged ~owner:(Sue.device_owner t) reference.ob_outputs faulty.ob_outputs
  in
  let perturbed v =
    diverged v || List.assoc v faulty.ob_status <> List.assoc v reference.ob_status
  in
  let others_diverged = List.exists (fun c -> (not (targeted c)) && diverged c) colours in
  let victim_perturbed = List.exists (fun c -> targeted c && perturbed c) colours in
  (* Recovered-safe demands full recovery: a recovery action happened and
     nothing stayed parked. A run where recovery was attempted but some
     regime is still down at the end only earns detected-safe. Without a
     supervisor [ob_recoveries] is empty and this is the old
     classification verbatim. *)
  let parked_at_end =
    List.exists (fun (_, s) -> s = Abstract_regime.Parked) faulty.ob_status
  in
  let outcome =
    outcome_of ~violating:others_diverged
      ~recovered:(faulty.ob_recoveries <> [] && not parked_at_end)
      ~noticed:(faulty.ob_detections <> [])
  in
  {
    plan;
    target;
    outcome;
    victim_perturbed;
    detections = faulty.ob_detections;
    recoveries = faulty.ob_recoveries;
    watchdog_delta = faulty.ob_wd_fires - reference.ob_wd_fires;
  }

(* -- Monitored replay ------------------------------------------------------- *)

type monitored = {
  mc_case : case;
  mc_first_violation : (int * Sep_core.Separability.failure) option;
  mc_deep_checks : int;
}

let monitored_case ?watchdog ?recover ?(period = 32) ~steps ~plan (sc : Scenarios.instance) =
  let module Monitor = Sep_core.Monitor in
  let reference, _ = observe_run ?watchdog sc ~steps ~plan:None in
  let watch = ref None in
  let hook t =
    let w = Monitor.watch ~period ~inputs:sc.Scenarios.alphabet t in
    watch := Some w;
    fun () -> Monitor.observe w
  in
  let faulty, t = observe_run ?watchdog ?recover ~hook sc ~steps ~plan:(Some plan) in
  let w = Option.get !watch in
  {
    mc_case = classify ~cfg:sc.Scenarios.cfg ~reference ~faulty ~t plan;
    mc_first_violation = Monitor.watch_first_violation w;
    mc_deep_checks = Monitor.deep_checks w;
  }

(* Scenario seeds derive from the campaign seed and the label so each
   scenario's plans are reproducible in isolation. *)
let scenario_seed seed label =
  String.fold_left (fun acc ch -> ((acc * 31) + Char.code ch) land 0x3fffffff) seed label

(* The parallel campaign driver. Every fault plan is replayed against an
   isolated fresh kernel and classified against its scenario's fault-free
   reference — embarrassingly parallel, and fully deterministic: plan
   generation is seeded and sequential, replay consumes no randomness, so
   sharding cases over domains and merging them back in canonical
   (scenario-major, plan-minor) order is bit-identical to [jobs = 1].
   Phase one runs the per-scenario references in parallel; phase two the
   flattened case list. *)
let run_catalogue ?recover ?(multi = 0) ?jobs ~seed ~steps ~count () =
  let scenarios =
    List.map (fun (sc, wd) -> (sc, wd, scenario_seed seed sc.Scenarios.label)) catalogue
  in
  let references =
    Sep_par.Par.map ?jobs
      (fun (sc, wd, _) -> fst (observe_run ?watchdog:wd sc ~steps ~plan:None))
      scenarios
  in
  let work =
    List.concat_map
      (fun ((sc, wd, sseed), reference) ->
        let plans =
          Fault_plan.generate ~seed:sseed ~steps ~count sc.Scenarios.cfg
          @ (if multi > 0 then
               Fault_plan.generate_multi ~seed:sseed ~steps ~count:multi ~faults_per_plan:3
                 sc.Scenarios.cfg
             else [])
        in
        List.map (fun plan -> (sc, wd, reference, plan)) plans)
      (List.combine scenarios references)
  in
  let cases =
    Sep_par.Par.map ?jobs
      (fun (sc, wd, reference, plan) ->
        let faulty, t = observe_run ?watchdog:wd ?recover sc ~steps ~plan:(Some plan) in
        (sc.Scenarios.label, classify ~cfg:sc.Scenarios.cfg ~reference ~faulty ~t plan))
      work
  in
  {
    rp_seed = seed;
    rp_scenarios =
      List.map
        (fun (sc, wd, sseed) ->
          {
            label = sc.Scenarios.label;
            seed = sseed;
            steps;
            watchdog = wd;
            cases =
              List.filter_map
                (fun (label, case) ->
                  if String.equal label sc.Scenarios.label then Some case else None)
                cases;
          })
        scenarios;
  }

let run ?jobs ~seed ~steps ~count () = run_catalogue ?jobs ~seed ~steps ~count ()

let run_recovery ?(policy = Recover.default_policy) ?jobs ~seed ~steps ~count () =
  run_catalogue ~recover:policy ~multi:(max 1 (count / 2)) ?jobs ~seed ~steps ~count ()

let totals report =
  tally (fun c -> c.outcome) (List.concat_map (fun sr -> sr.cases) report.rp_scenarios)

let holds report =
  let _, _, _, v = totals report in
  v = 0

(* -- Reporting ------------------------------------------------------------- *)

let detection_to_json f =
  match (f : Sue.kernel_fault) with
  | Sue.Save_area_corrupt c -> J.String ("save-area-corrupt:" ^ Colour.name c)
  | Sue.Guard_breach a -> J.String (Fmt.str "guard-breach:%04x" a)
  | Sue.Channel_head_corrupt a -> J.String (Fmt.str "channel-head-corrupt:%04x" a)
  | Sue.Watchdog_expired c -> J.String ("watchdog-expired:" ^ Colour.name c)
  | Sue.Kernel_panic reason -> J.String ("kernel-panic:" ^ reason)
  | Sue.Regime_restart c -> J.String ("regime-restart:" ^ Colour.name c)
  | Sue.Checkpoint_corrupt c -> J.String ("checkpoint-corrupt:" ^ Colour.name c)
  | Sue.Warm_reboot -> J.String "warm-reboot"

let case_to_json sr case =
  J.Obj
    [
      ("kind", J.String "fault-case");
      ("scenario", J.String sr.label);
      ("seed", J.Int sr.seed);
      ("steps", J.Int sr.steps);
      ("plan", Fault_plan.to_json case.plan);
      ("target", match case.target with Some c -> J.String (Colour.name c) | None -> J.Null);
      ("outcome", J.String (Fmt.str "%a" pp_outcome case.outcome));
      ("victim_perturbed", J.Bool case.victim_perturbed);
      ("detections", J.List (List.map detection_to_json case.detections));
      ("recoveries", J.List (List.map detection_to_json case.recoveries));
      ("watchdog_delta", J.Int case.watchdog_delta);
    ]

let summary_json report =
  let masked, detected, recovered, violating = totals report in
  J.Obj
    [
      ("kind", J.String "campaign-summary");
      ("seed", J.Int report.rp_seed);
      ("scenarios", J.Int (List.length report.rp_scenarios));
      ("cases", J.Int (masked + detected + recovered + violating));
      ("masked", J.Int masked);
      ("detected_safe", J.Int detected);
      ("recovered_safe", J.Int recovered);
      ("violating", J.Int violating);
      ("holds", J.Bool (holds report));
    ]

let report_lines report =
  List.concat_map (fun sr -> List.map (case_to_json sr) sr.cases) report.rp_scenarios
  @ [ summary_json report ]

let report_to_jsonl report = Sep_obs.Sink.jsonl (report_lines report)

(* -- The distributed baseline ---------------------------------------------- *)

type dist_report = {
  dr_cases : int;
  dr_affected : int;
  dr_contained : bool;
}

(* A -> B over one physical wire, C isolated. Tampering with the wire can
   reach only what the wire connects: B's deliveries. A and C have no
   physical path from the fault — that is the containment the kernel's
   campaign above has to earn with checksums and guards. *)
let dist_topology () =
  let a = Colour.make "A" and b = Colour.make "B" and c = Colour.make "C" in
  let sender =
    Component.stateless ~name:"sender" (function
      | Component.External m -> [ Component.Send (0, m) ]
      | Component.Recv _ -> [])
  in
  let sink =
    Component.stateless ~name:"sink" (function
      | Component.Recv (_, m) -> [ Component.Output m ]
      | Component.External _ -> [])
  in
  let loner =
    Component.stateless ~name:"loner" (function
      | Component.External m -> [ Component.Output m ]
      | Component.Recv _ -> [])
  in
  (Topology.make ~parts:[ (a, sender); (b, sink); (c, loner) ] ~wires:[ (a, b, 2) ], a, b, c)

let dist_run ~steps ~tamper_at ~mode =
  let topo, a, _b, c = dist_topology () in
  let net = Net.build topo in
  let affected = ref 0 in
  for n = 0 to steps - 1 do
    (match tamper_at with
    | Some at when at = n ->
      affected :=
        !affected
        + Net.tamper net ~wire:0 (fun msg ->
              match mode with
              | `Destroy -> None
              | `Scramble -> Some (msg ^ "!"))
    | _ -> ());
    Net.step net ~externals:(if n mod 2 = 0 then [ (a, Fmt.str "m%d" n); (c, Fmt.str "c%d" n) ] else [])
  done;
  (Net.trace net a, Net.trace net c, !affected)

let run_distributed ~seed ~steps ~count =
  let rng = Prng.create seed in
  let ref_a, ref_c, _ = dist_run ~steps ~tamper_at:None ~mode:`Destroy in
  let equal_trace = List.equal Component.equal_obs in
  let one _ =
    let at = Prng.int rng steps in
    let mode = if Prng.bool rng then `Destroy else `Scramble in
    let got_a, got_c, affected = dist_run ~steps ~tamper_at:(Some at) ~mode in
    (affected, equal_trace ref_a got_a && equal_trace ref_c got_c)
  in
  let results = List.init count one in
  {
    dr_cases = count;
    dr_affected = List.fold_left (fun acc (n, _) -> acc + n) 0 results;
    dr_contained = List.for_all snd results;
  }

let dist_to_json d =
  J.Obj
    [
      ("kind", J.String "distributed-baseline");
      ("cases", J.Int d.dr_cases);
      ("affected", J.Int d.dr_affected);
      ("contained", J.Bool d.dr_contained);
    ]
