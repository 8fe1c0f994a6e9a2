type t = { title : string; columns : string list; mutable rows : string list list }

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  let ncols = List.length t.columns in
  let n = List.length row in
  if n > ncols then invalid_arg "Table.add_row: too many cells";
  let padded = row @ List.init (ncols - n) (fun _ -> "") in
  t.rows <- t.rows @ [ padded ]

let render t =
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  measure t.columns;
  List.iter measure t.rows;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  (* no line ends in blanks: not the last column's padding, nor the
     separators before empty trailing cells *)
  let line row =
    let s = String.concat "  " (List.mapi pad row) in
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do decr n done;
    String.sub s 0 !n
  in
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.columns ^ "\n");
  Buffer.add_string buf (rule ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (line row ^ "\n")) t.rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
