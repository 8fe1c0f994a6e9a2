(* Regenerate the command blocks of a Markdown document:

     docblocks RUSHBY DOC

   prints DOC with each command block's body replaced by what its command
   prints now. A command block is a "```text" fence line followed by a
   line "$ rushby ARGS". The executable RUSHBY runs with ARGS split on
   spaces (no shell), and its stdout becomes the body: each line without
   trailing blanks, no trailing blank lines, then "exit N" if it exits
   N <> 0. Every other line passes through unchanged. An unterminated
   command block is an error naming the line that opens it. *)

let rstrip s =
  let n = ref (String.length s) in
  while !n > 0 && (s.[!n - 1] = ' ' || s.[!n - 1] = '\t') do decr n done;
  String.sub s 0 !n

let output exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = List.rev (List.map rstrip (String.split_on_char '\n' (In_channel.input_all ic))) in
  let rec drop_blank = function "" :: rest -> drop_blank rest | body -> body in
  let status =
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> []
    | Unix.WEXITED n -> [ Printf.sprintf "exit %d" n ]
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> [ Printf.sprintf "signal %d" n ]
  in
  List.rev_append (drop_blank lines) status

let command line =
  match String.split_on_char ' ' line with
  | "$" :: "rushby" :: args -> Some (List.filter (( <> ) "") args)
  | _ -> None

let () =
  let exe, doc =
    match Sys.argv with
    | [| _; exe; doc |] -> (exe, doc)
    | _ -> prerr_endline "usage: docblocks RUSHBY DOC"; exit 2
  in
  let lines = Array.of_list (String.split_on_char '\n' (In_channel.with_open_bin doc In_channel.input_all)) in
  let n = Array.length lines in
  let out = ref [] in
  let emit l = out := l :: !out in
  let i = ref 0 in
  while !i < n do
    emit lines.(!i);
    incr i;
    match if lines.(!i - 1) = "```text" && !i < n then command lines.(!i) else None with
    | None -> ()
    | Some args ->
      let opened = !i in
      emit lines.(!i);
      List.iter emit (output exe args);
      while !i < n && lines.(!i) <> "```" do incr i done;
      if !i = n then begin
        Printf.eprintf "%s:%d: unterminated command block\n" doc opened;
        exit 1
      end
  done;
  print_string (String.concat "\n" (List.rev !out))
