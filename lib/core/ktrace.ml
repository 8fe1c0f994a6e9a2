module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa

type event =
  | Executed of { colour : Colour.t; pc : int; instr : Isa.t }
  | Trapped of { colour : Colour.t; number : int }
  | Switched of { from_ : Colour.t; to_ : Colour.t }
  | Blocked of Colour.t
  | Parked of Colour.t
  | Woken of Colour.t
  | Arrived of { device : int; word : int }
  | Emitted of { device : int; word : int }
  | Stalled
  | Save_corrupt of Colour.t
  | Guard_breached of { addr : int }
  | Channel_corrupt of { addr : int }
  | Watchdog_fired of Colour.t
  | Kernel_panicked of { reason : string }
  | Restarted of Colour.t
  | Checkpoint_corrupt of Colour.t
  | Warm_rebooted

(* The audit constructors mirror Sue.kernel_fault one-for-one, so a new
   fault kind cannot compile without a trace event (and, below, a JSON
   schema entry). *)
let event_of_fault = function
  | Sue.Save_area_corrupt c -> Save_corrupt c
  | Sue.Guard_breach addr -> Guard_breached { addr }
  | Sue.Channel_head_corrupt addr -> Channel_corrupt { addr }
  | Sue.Watchdog_expired c -> Watchdog_fired c
  | Sue.Kernel_panic reason -> Kernel_panicked { reason }
  | Sue.Regime_restart c -> Restarted c
  | Sue.Checkpoint_corrupt c -> Checkpoint_corrupt c
  | Sue.Warm_reboot -> Warm_rebooted

let pp_event ppf = function
  | Executed e -> Fmt.pf ppf "%a@%04x  %a" Colour.pp e.colour e.pc Isa.pp e.instr
  | Trapped t -> Fmt.pf ppf "%a trap %d" Colour.pp t.colour t.number
  | Switched s -> Fmt.pf ppf "switch %a -> %a" Colour.pp s.from_ Colour.pp s.to_
  | Blocked c -> Fmt.pf ppf "%a waits" Colour.pp c
  | Parked c -> Fmt.pf ppf "%a PARKED" Colour.pp c
  | Woken c -> Fmt.pf ppf "%a woken" Colour.pp c
  | Arrived a -> Fmt.pf ppf "input dev%d <- %04x" a.device a.word
  | Emitted e -> Fmt.pf ppf "output dev%d -> %04x" e.device e.word
  | Stalled -> Fmt.string ppf "all regimes waiting"
  | Save_corrupt c -> Fmt.pf ppf "AUDIT save area of %a corrupt; parked" Colour.pp c
  | Guard_breached g -> Fmt.pf ppf "AUDIT guard %04x breached; repaired" g.addr
  | Channel_corrupt g -> Fmt.pf ppf "AUDIT channel head %04x corrupt; repaired" g.addr
  | Watchdog_fired c -> Fmt.pf ppf "AUDIT watchdog forced %a off the processor" Colour.pp c
  | Kernel_panicked k -> Fmt.pf ppf "AUDIT KERNEL PANIC: %s" k.reason
  | Restarted c -> Fmt.pf ppf "AUDIT %a restarted from its checkpoint" Colour.pp c
  | Checkpoint_corrupt c -> Fmt.pf ppf "AUDIT checkpoint of %a corrupt; left parked" Colour.pp c
  | Warm_rebooted -> Fmt.string ppf "AUDIT kernel warm reboot"

type entry = { step : int; events : event list }

type snapshot = {
  sn_current : Colour.t;
  sn_status : (Colour.t * Abstract_regime.status) list;
  sn_pc : int;
  sn_instr : Isa.t option;
}

let observe t =
  let colours = Config.colours (Sue.config t) in
  let current = Sue.current_colour t in
  let view = Sue.phi t current in
  let pc = view.Abstract_regime.regs.(Isa.pc_reg) in
  let instr =
    if pc < Array.length view.Abstract_regime.mem then Isa.decode view.Abstract_regime.mem.(pc)
    else None
  in
  {
    sn_current = current;
    sn_status = List.map (fun c -> (c, Sue.regime_status t c)) colours;
    sn_pc = pc;
    sn_instr = instr;
  }

(* The kernel's step has three phases (observe outputs, consume input,
   execute); tracing replays them separately so events land in the right
   phase — in particular an interrupt that wakes a regime and the
   instruction that regime then executes are both visible. *)
let step t input =
  let events = ref [] in
  let add e = events := e :: !events in
  let audit () = List.iter (fun f -> add (event_of_fault f)) (Sue.drain_faults t) in
  let before = observe t in
  (* this driver bypasses [Sue.step], so it emits the per-step causal
     instant itself *)
  if Sep_obs.Trace.enabled () then
    Sep_obs.Trace.instant ~cat:"sue"
      ~args:[ ("colour", Sep_util.Json.String (Colour.name before.sn_current)) ]
      "step";
  List.iter (fun (device, word) -> add (Emitted { device; word })) (Sue.outputs t);
  List.iter (fun (device, word) -> add (Arrived { device; word })) input;
  Sue.deliver_inputs t input;
  audit ();
  let mid = observe t in
  List.iter2
    (fun (c, s0) (_, s1) ->
      match (s0, s1) with
      | Abstract_regime.Waiting, Abstract_regime.Running -> add (Woken c)
      | _ -> ())
    before.sn_status mid.sn_status;
  if not (Colour.equal before.sn_current mid.sn_current) then
    add (Switched { from_ = before.sn_current; to_ = mid.sn_current });
  Sue.exec_op t;
  let after = observe t in
  let ran_status = List.assoc mid.sn_current mid.sn_status in
  (match (ran_status, mid.sn_instr) with
  | Abstract_regime.Running, Some instr ->
    add (Executed { colour = mid.sn_current; pc = mid.sn_pc; instr });
    (match instr with
    | Isa.Trap n -> add (Trapped { colour = mid.sn_current; number = n })
    | _ -> ())
  | Abstract_regime.Running, None ->
    (* illegal word or out-of-partition fetch; the park event below tells
       the rest of the story *)
    ()
  | (Abstract_regime.Waiting | Abstract_regime.Parked), _ -> add Stalled);
  List.iter2
    (fun (c, s0) (_, s1) ->
      match (s0, s1) with
      | Abstract_regime.Running, Abstract_regime.Waiting -> add (Blocked c)
      | (Abstract_regime.Running | Abstract_regime.Waiting), Abstract_regime.Parked ->
        add (Parked c)
      | _ -> ())
    mid.sn_status after.sn_status;
  if not (Colour.equal mid.sn_current after.sn_current) then
    add (Switched { from_ = mid.sn_current; to_ = after.sn_current });
  audit ();
  List.rev !events

let record t ~steps ~inputs =
  let out = ref [] in
  for n = 0 to steps - 1 do
    match step t (inputs n) with
    | [] -> ()
    | events -> out := { step = n; events } :: !out
  done;
  List.rev !out

(* JSON rendering. The match is exhaustive on purpose: adding an event
   constructor without extending the schema is a compile error, not a
   silently incomplete trace. *)
let event_to_json ev =
  let module J = Sep_util.Json in
  let colour c = ("colour", J.String (Colour.name c)) in
  match ev with
  | Executed e ->
    J.Obj
      [
        ("type", J.String "executed");
        colour e.colour;
        ("pc", J.Int e.pc);
        ("instr", J.String (Fmt.str "%a" Isa.pp e.instr));
      ]
  | Trapped t -> J.Obj [ ("type", J.String "trapped"); colour t.colour; ("number", J.Int t.number) ]
  | Switched s ->
    J.Obj
      [
        ("type", J.String "switched");
        ("from", J.String (Colour.name s.from_));
        ("to", J.String (Colour.name s.to_));
      ]
  | Blocked c -> J.Obj [ ("type", J.String "blocked"); colour c ]
  | Parked c -> J.Obj [ ("type", J.String "parked"); colour c ]
  | Woken c -> J.Obj [ ("type", J.String "woken"); colour c ]
  | Arrived a ->
    J.Obj [ ("type", J.String "arrived"); ("device", J.Int a.device); ("word", J.Int a.word) ]
  | Emitted e ->
    J.Obj [ ("type", J.String "emitted"); ("device", J.Int e.device); ("word", J.Int e.word) ]
  | Stalled -> J.Obj [ ("type", J.String "stalled") ]
  | Save_corrupt c -> J.Obj [ ("type", J.String "save-corrupt"); colour c ]
  | Guard_breached g -> J.Obj [ ("type", J.String "guard-breached"); ("addr", J.Int g.addr) ]
  | Channel_corrupt g -> J.Obj [ ("type", J.String "channel-corrupt"); ("addr", J.Int g.addr) ]
  | Watchdog_fired c -> J.Obj [ ("type", J.String "watchdog-fired"); colour c ]
  | Kernel_panicked k ->
    J.Obj [ ("type", J.String "kernel-panicked"); ("reason", J.String k.reason) ]
  | Restarted c -> J.Obj [ ("type", J.String "restarted"); colour c ]
  | Checkpoint_corrupt c -> J.Obj [ ("type", J.String "checkpoint-corrupt"); colour c ]
  | Warm_rebooted -> J.Obj [ ("type", J.String "warm-rebooted") ]

let entry_to_json e =
  let module J = Sep_util.Json in
  J.Obj [ ("step", J.Int e.step); ("events", J.List (List.map event_to_json e.events)) ]

let to_json entries = Sep_obs.Sink.jsonl (List.map entry_to_json entries)

let render entries =
  let buf = Buffer.create 512 in
  List.iter
    (fun e ->
      List.iter
        (fun ev -> Buffer.add_string buf (Fmt.str "%4d  %a\n" e.step pp_event ev))
        e.events)
    entries;
  Buffer.contents buf
