module Sclass = Sep_lattice.Sclass
module Blp = Sep_policy.Blp

type proc_id = int
type obj_id = int

type denial =
  | No_such_object
  | No_such_process
  | Ss_violation
  | Star_violation

type syscall =
  | Create
  | Read
  | Write
  | Append
  | Delete
  | Ipc_send

type audit_entry = {
  au_proc : string;
  au_call : syscall;
  au_object : string;
  au_granted : bool;
  au_by_trust : bool;
}

type process = {
  p_name : string;
  p_subject : Blp.subject;
  mutable p_mailbox : string list;  (* newest last *)
}

type object_ = {
  o_name : string;
  o_class : Sclass.t;
  mutable o_data : string;
  mutable o_live : bool;
}

type t = {
  mutable procs : process array;
  mutable objects : object_ array;
  mutable audit_log : audit_entry list;  (* newest first *)
  mutable grants : int;
  mutable denials : int;
  mutable by_trust : int;
}

let boot () =
  { procs = [||]; objects = [||]; audit_log = []; grants = 0; denials = 0; by_trust = 0 }

let add_process t ~name ~clearance ~trusted =
  let p = { p_name = name; p_subject = Blp.subject ~trusted name clearance; p_mailbox = [] } in
  t.procs <- Array.append t.procs [| p |];
  Array.length t.procs - 1

let proc t p = if p >= 0 && p < Array.length t.procs then Some t.procs.(p) else None

let obj t o =
  if o >= 0 && o < Array.length t.objects && t.objects.(o).o_live then Some t.objects.(o)
  else None

let log t ~proc_name ~call ~obj_name verdict =
  let granted = verdict.Blp.granted in
  t.audit_log <-
    {
      au_proc = proc_name;
      au_call = call;
      au_object = obj_name;
      au_granted = granted;
      au_by_trust = verdict.Blp.by_trust;
    }
    :: t.audit_log;
  if granted then begin
    t.grants <- t.grants + 1;
    if verdict.Blp.by_trust then t.by_trust <- t.by_trust + 1
  end
  else t.denials <- t.denials + 1

(* Every access comes through here: the kernel as central policy agent. *)
let mediate t p call access ~obj_name ~obj_class k =
  match proc t p with
  | None -> Error No_such_process
  | Some process ->
    let verdict = Blp.decide process.p_subject access (Blp.obj obj_name obj_class) in
    log t ~proc_name:process.p_name ~call ~obj_name verdict;
    if verdict.Blp.granted then Ok (k process)
    else if verdict.Blp.ss_ok then Error Star_violation
    else Error Ss_violation

let create_object t p ~name ~classification =
  match mediate t p Create Blp.Append ~obj_name:name ~obj_class:classification (fun _ -> ()) with
  | Error d -> Error d
  | Ok () ->
    t.objects <-
      Array.append t.objects [| { o_name = name; o_class = classification; o_data = ""; o_live = true } |];
    Ok (Array.length t.objects - 1)

let with_object t o k =
  match obj t o with
  | None -> Error No_such_object
  | Some ob -> k ob

let read t p o =
  with_object t o (fun ob ->
      mediate t p Read Blp.Read ~obj_name:ob.o_name ~obj_class:ob.o_class (fun _ -> ob.o_data))

let write t p o data =
  with_object t o (fun ob ->
      mediate t p Write Blp.Write ~obj_name:ob.o_name ~obj_class:ob.o_class (fun _ ->
          ob.o_data <- data))

let append t p o data =
  with_object t o (fun ob ->
      mediate t p Append Blp.Append ~obj_name:ob.o_name ~obj_class:ob.o_class (fun _ ->
          ob.o_data <- ob.o_data ^ data))

let delete t p o =
  with_object t o (fun ob ->
      mediate t p Delete Blp.Write ~obj_name:ob.o_name ~obj_class:ob.o_class (fun _ ->
          ob.o_live <- false))

let ipc_send t p ~to_ msg =
  match proc t to_ with
  | None -> Error No_such_process
  | Some target ->
    mediate t p Ipc_send Blp.Append ~obj_name:("mailbox:" ^ target.p_name)
      ~obj_class:target.p_subject.Blp.clearance (fun _ ->
        target.p_mailbox <- target.p_mailbox @ [ msg ])

let ipc_recv t p =
  match proc t p with
  | None -> Error No_such_process
  | Some process -> begin
    (* reading your own mailbox needs no mediation beyond ownership *)
    match process.p_mailbox with
    | [] -> Ok None
    | m :: rest ->
      process.p_mailbox <- rest;
      Ok (Some m)
  end

let find_object t name =
  let rec search i =
    if i >= Array.length t.objects then None
    else if t.objects.(i).o_live && t.objects.(i).o_name = name then Some i
    else search (i + 1)
  in
  search 0

let object_names t =
  Array.to_list t.objects |> List.filter (fun o -> o.o_live) |> List.map (fun o -> o.o_name)

let audit t = List.rev t.audit_log

type stats = {
  mediated_calls : int;
  grants : int;
  denials : int;
  by_trust : int;
}

let stats (k : t) =
  {
    mediated_calls = k.grants + k.denials;
    grants = k.grants;
    denials = k.denials;
    by_trust = k.by_trust;
  }

let pp_denial ppf d =
  Fmt.string ppf
    (match d with
    | No_such_object -> "no-such-object"
    | No_such_process -> "no-such-process"
    | Ss_violation -> "ss-violation"
    | Star_violation -> "star-violation")

let syscall_surface = 6
