module Prng = Sep_util.Prng
module Colour = Sep_model.Colour
module Isa = Sep_hw.Isa
module Machine = Sep_hw.Machine
module Config = Sep_core.Config
module Sue = Sep_core.Sue
module J = Sep_util.Json

type 'a t = Prng.t -> 'a

let run ~seed g = g (Prng.create seed)

let generate ~seed ~count g =
  let rng = Prng.create seed in
  List.init count (fun _ -> g rng)

let return v _ = v
let map f g rng = f (g rng)
let map2 f a b rng =
  let x = a rng in
  let y = b rng in
  f x y
let bind g f rng = f (g rng) rng
let pair a b = map2 (fun x y -> (x, y)) a b
let int bound rng = Prng.int rng bound
let int_in lo hi rng = Prng.int_in rng lo hi
let bool rng = Prng.bool rng

let oneof gens rng =
  let arr = Array.of_list gens in
  Prng.choose rng arr rng

let oneof_val vs rng = Prng.choose rng (Array.of_list vs)

let frequency weighted rng =
  let total = List.fold_left (fun acc (w, _) -> if w <= 0 then invalid_arg "Gen.frequency" else acc + w) 0 weighted in
  let pick = Prng.int rng total in
  let rec go acc = function
    | [] -> assert false
    | (w, g) :: rest -> if pick < acc + w then g rng else go (acc + w) rest
  in
  go 0 weighted

let list ~max_len g rng = List.init (Prng.int rng (max_len + 1)) (fun _ -> g rng)

let int_any rng =
  match Prng.int rng 8 with
  | 0 -> 0
  | 1 | 2 -> Prng.int_in rng (-32) 32
  | 3 -> max_int
  | 4 -> min_int
  | 5 -> Prng.int_in rng (-100000) 100000
  | _ -> Int64.to_int (Prng.bits64 rng)

(* finite floats only: the JSON writer renders non-finite floats as
   null, which cannot round-trip *)
let float_finite rng =
  match Prng.int rng 6 with
  | 0 -> 0.0
  | 1 -> float_of_int (Prng.int_in rng (-50) 50)
  | 2 -> float_of_int (Prng.int_in rng (-10000) 10000) /. 128.
  | 3 -> Prng.float rng 1.0
  | 4 -> ldexp (Prng.float rng 1.0 +. 1.0) (Prng.int_in rng (-300) 300)
  | _ -> -.ldexp (Prng.float rng 1.0 +. 1.0) (Prng.int_in rng (-30) 30)

(* Valid UTF-8 by construction: pick code points from printable ASCII,
   control characters, Latin, CJK and supplementary ranges. *)
let codepoint rng =
  match Prng.int rng 8 with
  | 0 | 1 | 2 | 3 -> Prng.int_in rng 0x20 0x7E
  | 4 -> Prng.int_in rng 0x00 0x1F
  | 5 -> Prng.int_in rng 0xA0 0x2FF
  | 6 -> Prng.int_in rng 0x4E00 0x4EFF
  | _ -> Prng.int_in rng 0x1F300 0x1F6FF

let utf8_add buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let utf8_string ~max_len rng =
  let n = Prng.int rng (max_len + 1) in
  let buf = Buffer.create (n * 2) in
  for _ = 1 to n do
    utf8_add buf (codepoint rng)
  done;
  Buffer.contents buf

let rec json_value depth rng =
  let leaf =
    [
      (2, return J.Null);
      (3, map (fun b -> J.Bool b) bool);
      (6, map (fun n -> J.Int n) int_any);
      (4, map (fun f -> J.Float f) float_finite);
      (6, map (fun s -> J.String s) (utf8_string ~max_len:12));
    ]
  in
  if depth <= 0 then frequency leaf rng
  else
    frequency
      (leaf
      @ [
          (3, map (fun vs -> J.List vs) (list ~max_len:4 (json_value (depth - 1))));
          ( 3,
            map
              (fun kvs -> J.Obj (List.mapi (fun i (k, v) -> (Fmt.str "%s%d" k i, v)) kvs))
              (list ~max_len:4 (pair (utf8_string ~max_len:6) (json_value (depth - 1)))) );
        ])
      rng

let json ?(depth = 3) () = json_value depth

let isa_instr rng =
  let reg = Prng.int rng 8 in
  let reg' = Prng.int rng 8 in
  match Prng.int rng 18 with
  | 0 -> Isa.Nop
  | 1 -> Isa.Halt
  | 2 -> Isa.Trap (Prng.int rng 256)
  | 3 -> Isa.Rti
  | 4 -> Isa.Loadi (reg, Prng.int rng 256)
  | 5 -> Isa.Load (reg, reg', Prng.int rng 64)
  | 6 -> Isa.Store (reg, reg', Prng.int rng 64)
  | 7 -> Isa.Mov (reg, reg')
  | 8 -> Isa.Add (reg, reg')
  | 9 -> Isa.Sub (reg, reg')
  | 10 -> Isa.And_ (reg, reg')
  | 11 -> Isa.Or_ (reg, reg')
  | 12 -> Isa.Xor (reg, reg')
  | 13 -> Isa.Cmp (reg, reg')
  | 14 -> Isa.Shl (reg, Prng.int rng 16)
  | 15 -> Isa.Shr (reg, Prng.int rng 16)
  | 16 -> Isa.Beq (Prng.int_in rng (-128) 127)
  | _ -> if Prng.bool rng then Isa.Bne (Prng.int_in rng (-128) 127) else Isa.Br (Prng.int_in rng (-128) 127)

(* -- Regime workloads -------------------------------------------------------- *)

type arith =
  | Add
  | Sub
  | Xor
  | And_
  | Or_

type action =
  | Set of int * int
  | Arith of arith * int * int
  | Emit of int * int
  | Poll of int
  | Send of int * int
  | Recv of int
  | Wait
  | Yield

let pp_arith ppf = function
  | Add -> Fmt.string ppf "add"
  | Sub -> Fmt.string ppf "sub"
  | Xor -> Fmt.string ppf "xor"
  | And_ -> Fmt.string ppf "and"
  | Or_ -> Fmt.string ppf "or"

let pp_action ppf = function
  | Set (r, v) -> Fmt.pf ppf "set r%d %d" r v
  | Arith (op, rd, rs) -> Fmt.pf ppf "%a r%d r%d" pp_arith op rd rs
  | Emit (slot, r) -> Fmt.pf ppf "emit slot%d r%d" slot r
  | Poll slot -> Fmt.pf ppf "poll slot%d" slot
  | Send (ch, r) -> Fmt.pf ppf "send ch%d r%d" ch r
  | Recv ch -> Fmt.pf ppf "recv ch%d" ch
  | Wait -> Fmt.string ppf "wait"
  | Yield -> Fmt.string ppf "yield"

type caps = {
  rx_slots : int list;
  tx_slots : int list;
  send_chans : int list;
  recv_chans : int list;
}

let caps_of_regime (cfg : _ Config.t) colour =
  let regime =
    List.find (fun (r : _ Config.regime) -> Colour.equal r.Config.colour colour) cfg.Config.regimes
  in
  let rx, tx, _ =
    List.fold_left
      (fun (rx, tx, i) kind ->
        match (kind : Machine.device_kind) with
        | Machine.Rx -> (i :: rx, tx, i + 1)
        | Machine.Tx -> (rx, i :: tx, i + 1)
        | Machine.Xform _ -> (rx, tx, i + 1))
      ([], [], 0) regime.Config.devices
  in
  let chans pick =
    List.filter_map
      (fun (ch : Config.channel) -> if Colour.equal (pick ch) colour then Some ch.Config.chan_id else None)
      cfg.Config.channels
  in
  {
    rx_slots = List.rev rx;
    tx_slots = List.rev tx;
    send_chans = chans (fun ch -> ch.Config.sender);
    recv_chans = chans (fun ch -> ch.Config.receiver);
  }

let action caps =
  let slot slots = oneof_val slots in
  let base =
    [
      (3, map2 (fun r v -> Set (r, v)) (int 6) (int 256));
      (2, bind (oneof_val [ Add; Sub; Xor; And_; Or_ ]) (fun op ->
               map2 (fun rd rs -> Arith (op, rd, rs)) (int_in 1 5) (int_in 1 5)));
      (3, return Yield);
    ]
  in
  let if_some xs weight g = if xs = [] then [] else [ (weight, g) ] in
  frequency
    (base
    @ if_some caps.tx_slots 3 (map2 (fun s r -> Emit (s, r)) (slot caps.tx_slots) (int_in 1 5))
    @ if_some caps.rx_slots 3 (map (fun s -> Poll s) (slot caps.rx_slots))
    @ if_some caps.rx_slots 1 (return Wait)
    @ if_some caps.send_chans 2 (map2 (fun c r -> Send (c, r)) (slot caps.send_chans) (int_in 1 5))
    @ if_some caps.recv_chans 2 (map (fun c -> Recv c) (slot caps.recv_chans)))

let actions caps ~max = list ~max_len:max (action caps)

let device_base = [ Isa.Instr (Isa.Loadi (6, 1)); Isa.Instr (Isa.Shl (6, 15)) ]

let needs_base = List.exists (function Emit _ | Poll _ -> true | _ -> false)

let render acts =
  let body =
    List.concat_map
      (fun a ->
        match a with
        | Set (r, v) -> [ Isa.Instr (Isa.Loadi (r, v)) ]
        | Arith (op, rd, rs) ->
          let instr =
            match op with
            | Add -> Isa.Add (rd, rs)
            | Sub -> Isa.Sub (rd, rs)
            | Xor -> Isa.Xor (rd, rs)
            | And_ -> Isa.And_ (rd, rs)
            | Or_ -> Isa.Or_ (rd, rs)
          in
          [ Isa.Instr instr ]
        | Emit (slot, r) -> [ Isa.Instr (Isa.Store (r, 6, 2 * slot)) ]
        | Poll slot -> [ Isa.Instr (Isa.Load (2, 6, 2 * slot)) ]
        | Send (ch, r) ->
          (if r = 1 then [] else [ Isa.Instr (Isa.Mov (1, r)) ])
          @ [ Isa.Instr (Isa.Loadi (0, ch)); Isa.Instr (Isa.Trap 1) ]
        | Recv ch -> [ Isa.Instr (Isa.Loadi (0, ch)); Isa.Instr (Isa.Trap 2) ]
        | Wait -> [ Isa.Instr Isa.Halt ]
        | Yield -> [ Isa.Instr (Isa.Trap 0) ])
      acts
  in
  (if needs_base acts then device_base else [])
  @ [ Isa.Label "loop" ]
  @ body
  @ [ Isa.Instr (Isa.Trap 0); Isa.Branch "loop" ]

let instr_count acts = Array.length (Isa.assemble (render acts))

let program caps ~max = map render (actions caps ~max)

(* -- Configurations ---------------------------------------------------------- *)

let config ?(max_regimes = 3) ?(max_actions = 6) () rng =
  let n = Prng.int_in rng 2 max_regimes in
  let colours = List.init n Colour.of_index in
  let devices _ =
    match Prng.int rng 4 with
    | 0 -> []
    | 1 -> [ Machine.Rx ]
    | 2 -> [ Machine.Tx ]
    | _ -> [ Machine.Rx; Machine.Tx ]
  in
  let dev_sets = List.map devices colours in
  let chan_count = Prng.int rng 3 in
  let chan_specs =
    List.filter_map
      (fun _ ->
        let s = Prng.int rng n in
        let r = Prng.int rng n in
        if s = r then None
        else Some (List.nth colours s, List.nth colours r, Prng.int_in rng 1 2))
      (List.init chan_count (fun i -> i))
  in
  (* channel capabilities need the channel list before programs are drawn,
     so build an uncut skeleton first and regenerate the programs *)
  let skeleton =
    Config.make
      ~regimes:
        (List.map2
           (fun colour devs -> { Config.colour; part_size = 1; program = []; devices = devs })
           colours dev_sets)
      ~channels:chan_specs ()
  in
  let regimes =
    List.map2
      (fun colour devs ->
        let caps = caps_of_regime skeleton colour in
        let prog = render (actions caps ~max:max_actions rng) in
        let part_size = Array.length (Isa.assemble prog) + Prng.int_in rng 4 10 in
        { Config.colour; part_size; program = prog; devices = devs })
      colours dev_sets
  in
  let quantum = if Prng.bool rng then None else Some (Prng.int_in rng 3 6) in
  Config.make ?quantum ~regimes ~channels:chan_specs ()

let rx_alphabet (cfg : _ Config.t) =
  let _, rx_ids =
    List.fold_left
      (fun (next, acc) (r : _ Config.regime) ->
        List.fold_left
          (fun (next, acc) kind ->
            match (kind : Machine.device_kind) with
            | Machine.Rx -> (next + 1, next :: acc)
            | _ -> (next + 1, acc))
          (next, acc) r.Config.devices)
      (0, []) cfg.Config.regimes
  in
  [] :: List.concat_map (fun d -> [ [ (d, 0) ]; [ (d, 1) ] ]) (List.rev rx_ids)

let schedule ~alphabet ~max_len rng =
  let arr = Array.of_list alphabet in
  let n = Prng.int rng (max_len + 1) in
  List.init n (fun _ -> if Array.length arr = 0 then [] else Prng.choose rng arr)

let soak_plans ~nodes ~steps ~count cfg rng =
  let seed = Int64.to_int (Prng.bits64 rng) land 0x3fffffff in
  Sep_robust.Fault_plan.soak ~nodes ~seed ~steps ~count cfg

let service_requests ~workload ~max rng =
  List.init (Prng.int_in rng 1 (Stdlib.max 1 max)) (fun _ -> workload rng)

let crashes ~colours ~max_steps ~max_crashes rng =
  let arr = Array.of_list colours in
  if Array.length arr = 0 then []
  else
    List.init
      (Prng.int_in rng 1 (max 1 max_crashes))
      (fun _ -> (Prng.int rng max_steps, Prng.choose rng arr))
