(* The generator of EXPERIMENTS.md's command blocks (bin/docblocks.ml):
   fixture documents regenerated with a fake command, and the real
   document regenerated a second time. *)

let sibling name = Filename.concat (Filename.dirname Sys.executable_name) name
let read file = In_channel.with_open_bin file In_channel.input_all
let write file s = Out_channel.with_open_bin file (fun oc -> output_string oc s)

let with_temp f =
  let file = Filename.temp_file "docblocks" "" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

(* Run the generator on [doc] with [exe] standing for rushby: its exit
   code, stdout and stderr, and the document's path. *)
let regenerate ~exe doc =
  with_temp @@ fun input ->
  with_temp @@ fun out ->
  with_temp @@ fun err ->
  write input doc;
  let code =
    Sys.command
      (Filename.quote_command (sibling "../bin/docblocks.exe") [ exe; input ] ~stdout:out ~stderr:err)
  in
  (code, read out, read err, input)

(* A fake rushby: prints its arguments with trailing blanks and a blank
   line, and exits 3 when the first one is "fail". *)
let fake f =
  with_temp @@ fun exe ->
  write exe "#!/bin/sh\nprintf 'args: %s  \\n\\n' \"$*\"\n[ \"$1\" = fail ] && exit 3\nexit 0\n";
  if Sys.command (Filename.quote_command "chmod" [ "+x"; exe ]) <> 0 then Alcotest.fail "chmod";
  f exe

let check_output ~expect doc () =
  fake @@ fun exe ->
  let code, out, err, _ = regenerate ~exe doc in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "stderr" "" err;
  Alcotest.(check string) "document" expect out

let passthrough =
  "# Title  \n\ttabbed line \r\n```text\nno command here  \n```\n```ocaml\n$ rushby a\n```\n\
   ```text\n$ rushbyx a\n```\nlast line, no newline"

let block_replaced =
  ( "intro\n```text\n$ rushby one  two\nold body\nmore old body\n```\noutro\n",
    "intro\n```text\n$ rushby one  two\nargs: one two\n```\noutro\n" )

let exit_appended =
  ("```text\n$ rushby fail now\n```\n", "```text\n$ rushby fail now\nargs: fail now\nexit 3\n```\n")

let unterminated () =
  fake @@ fun exe ->
  let code, _, err, input = regenerate ~exe "a\n\n```text\n$ rushby x\nbody\n" in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check string) "names the opening line" (input ^ ":3: unterminated command block\n") err

(* The build regenerates EXPERIMENTS.md once (EXPERIMENTS.md.gen); a
   second run here must print the same bytes. *)
let real_document_twice () =
  let code, out, err, _ =
    regenerate ~exe:(sibling "../bin/rushby.exe") (read (sibling "../EXPERIMENTS.md"))
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "stderr" "" err;
  Alcotest.(check bool) "identical to the build's run" true (out = read (sibling "../EXPERIMENTS.md.gen"))

let () =
  Alcotest.run "docblocks"
    [
      ( "generator",
        [
          Alcotest.test_case "text outside blocks passes through" `Quick
            (check_output ~expect:passthrough passthrough);
          Alcotest.test_case "block body replaced by output" `Quick
            (check_output ~expect:(snd block_replaced) (fst block_replaced));
          Alcotest.test_case "non-zero exit appended" `Quick
            (check_output ~expect:(snd exit_appended) (fst exit_appended));
          Alcotest.test_case "unterminated block names its line" `Quick unterminated;
          Alcotest.test_case "EXPERIMENTS.md regenerates identically" `Slow real_document_twice;
        ] );
    ]
