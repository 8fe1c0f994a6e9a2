type t = { buf : Buffer.t; mutable lines : int }

let of_buffer buf = { buf; lines = 0 }

let emit t v =
  Buffer.add_string t.buf (Sep_util.Json.to_string v);
  Buffer.add_char t.buf '\n';
  t.lines <- t.lines + 1

let emitted t = t.lines

let jsonl values =
  let t = of_buffer (Buffer.create 4096) in
  List.iter (emit t) values;
  Buffer.contents t.buf
