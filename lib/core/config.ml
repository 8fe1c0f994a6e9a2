module Colour = Sep_model.Colour

type channel = {
  chan_id : int;
  sender : Colour.t;
  receiver : Colour.t;
  capacity : int;
  cut : bool;
}

type 'prog regime = {
  colour : Colour.t;
  part_size : int;
  program : 'prog;
  devices : Sep_hw.Machine.device_kind list;
}

type 'prog t = {
  regimes : 'prog regime list;
  channels : channel list;
  quantum : int option;
}

let validate t =
  let rec check_distinct = function
    | [] -> Ok ()
    | r :: rest ->
      if List.exists (fun r' -> Colour.equal r.colour r'.colour) rest then
        Error ("duplicate regime colour " ^ Colour.name r.colour)
      else check_distinct rest
  in
  let declared c = List.exists (fun r -> Colour.equal r.colour c) t.regimes in
  let check_channel i ch =
    if ch.chan_id <> i then Error "channel ids must be positions"
    else if ch.capacity < 1 then Error "channel capacity must be >= 1"
    else if Colour.equal ch.sender ch.receiver then Error "self-channels are not allowed"
    else if not (declared ch.sender) then Error ("unknown sender " ^ Colour.name ch.sender)
    else if not (declared ch.receiver) then Error ("unknown receiver " ^ Colour.name ch.receiver)
    else Ok ()
  in
  let check_regime r = if r.part_size < 1 then Error "partition size must be >= 1" else Ok () in
  let check_quantum =
    match t.quantum with
    | Some q when q < 1 -> Error "quantum must be >= 1"
    | Some _ | None -> Ok ()
  in
  let rec all = function
    | [] -> Ok ()
    | Ok () :: rest -> all rest
    | (Error _ as e) :: _ -> e
  in
  match check_distinct t.regimes with
  | Error _ as e -> e
  | Ok () ->
    all ((check_quantum :: List.map check_regime t.regimes) @ List.mapi check_channel t.channels)

let make ?quantum ~regimes ~channels () =
  let channel i (sender, receiver, capacity) = { chan_id = i; sender; receiver; capacity; cut = false } in
  let t = { regimes; channels = List.mapi channel channels; quantum } in
  match validate t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Config.make: " ^ msg)

let set_cut cut t = { t with channels = List.map (fun ch -> { ch with cut }) t.channels }

let cut_all t = set_cut true t
let cut_none t = set_cut false t

let colours t = List.map (fun r -> r.colour) t.regimes

let regime_index t c =
  let rec find i = function
    | [] -> raise Not_found
    | r :: rest -> if Colour.equal r.colour c then i else find (i + 1) rest
  in
  find 0 t.regimes
