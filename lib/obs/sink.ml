type target =
  | To_buffer of Buffer.t
  | To_channel of out_channel

type t = { target : target; mutable lines : int }

let of_buffer b = { target = To_buffer b; lines = 0 }
let of_channel oc = { target = To_channel oc; lines = 0 }

let emit t v =
  let line = Sep_util.Json.to_string v in
  (match t.target with
  | To_buffer b ->
    Buffer.add_string b line;
    Buffer.add_char b '\n'
  | To_channel oc ->
    output_string oc line;
    output_char oc '\n');
  t.lines <- t.lines + 1

let emitted t = t.lines

let jsonl values =
  let b = Buffer.create 4096 in
  let t = of_buffer b in
  List.iter (emit t) values;
  Buffer.contents b

let with_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (of_channel oc))
