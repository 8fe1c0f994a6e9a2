module J = Sep_util.Json

type phase =
  | Begin
  | End
  | Instant
  | Flow_start
  | Flow_end

type event = {
  seq : int;
  ts : float;
  dom : int;
  cat : string;
  name : string;
  phase : phase;
  id : int;
  args : (string * J.t) list;
}

let dummy =
  { seq = -1; ts = 0.0; dom = 0; cat = ""; name = ""; phase = Instant; id = 0; args = [] }

(* The ring and its cursor live under one mutex; the enabled flag is an
   atomic so the disabled fast path takes no lock. *)
let on = Atomic.make false
let lock = Mutex.create ()
let buf = ref (Array.make 4096 dummy)
let head = ref 0 (* next write position *)
let count = ref 0 (* live events in the ring *)
let total = ref 0 (* events offered since last clear *)
let epoch = ref 0.0
let next_id = Atomic.make 1
let dump_hooks : (string -> event list -> unit) list ref = ref []
let last = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled () = Atomic.get on

let clear () =
  locked (fun () ->
      head := 0;
      count := 0;
      total := 0;
      epoch := Unix.gettimeofday ())

let set_enabled b =
  Atomic.set on b;
  if b then locked (fun () -> if !count = 0 then epoch := Unix.gettimeofday ())

let set_capacity cap =
  let cap = max 16 cap in
  locked (fun () ->
      buf := Array.make cap dummy;
      head := 0;
      count := 0;
      total := 0;
      epoch := Unix.gettimeofday ())

let capacity () = locked (fun () -> Array.length !buf)

let fresh_id () = Atomic.fetch_and_add next_id 1

let emit ?(id = 0) ?(args = []) ~cat ~phase name =
  if Atomic.get on then begin
    let ts = Unix.gettimeofday () in
    let dom = (Domain.self () :> int) in
    locked (fun () ->
        let b = !buf in
        let ev = { seq = !total; ts = ts -. !epoch; dom; cat; name; phase; id; args } in
        b.(!head) <- ev;
        head := (!head + 1) mod Array.length b;
        count := min (!count + 1) (Array.length b);
        incr total)
  end

let instant ?id ?args ~cat name = emit ?id ?args ~cat ~phase:Instant name

let flow_start ?args ~cat name =
  if Atomic.get on then begin
    let id = fresh_id () in
    emit ~id ?args ~cat ~phase:Flow_start name;
    id
  end
  else 0

let flow_end ?args ~cat ~id name = if id <> 0 then emit ~id ?args ~cat ~phase:Flow_end name

let recorded () =
  locked (fun () ->
      let b = !buf in
      let cap = Array.length b in
      let n = !count in
      let first = (!head - n + cap) mod cap in
      List.init n (fun i -> b.((first + i) mod cap)))

let seen () = locked (fun () -> !total)

let phase_letter = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Flow_start -> "s"
  | Flow_end -> "f"

let event_to_json ev =
  let base =
    [
      ("name", J.String ev.name);
      ("cat", J.String ev.cat);
      ("ph", J.String (phase_letter ev.phase));
      ("ts", J.Float (ev.ts *. 1e6));
      ("pid", J.Int 1);
      ("tid", J.Int ev.dom);
    ]
  in
  let base = if ev.id <> 0 then base @ [ ("id", J.Int ev.id) ] else base in
  let base =
    match ev.phase with
    | Instant -> base @ [ ("s", J.String "g") ] (* global-scope instant *)
    | Flow_end -> base @ [ ("bp", J.String "e") ] (* bind to enclosing slice *)
    | Begin | End | Flow_start -> base
  in
  J.Obj (if ev.args = [] then base else base @ [ ("args", J.Obj ev.args) ])

let chrome_string () =
  J.to_string
    (J.Obj
       [
         ("traceEvents", J.List (List.map event_to_json (recorded ())));
         ("displayTimeUnit", J.String "ns");
       ])

let on_dump f = dump_hooks := f :: !dump_hooks

let dump ~reason =
  if Atomic.get on then begin
    instant ~cat:"flight" ~args:[ ("reason", J.String reason) ] "dump";
    let events = recorded () in
    last := Some (reason, events);
    List.iter (fun f -> f reason events) !dump_hooks
  end

let last_dump () = !last
