module Colour = Sep_model.Colour
module System = Sep_model.System

type failure = { condition : int; colour : Colour.t; detail : string }

type report = {
  instance : string;
  states : int;
  checks : int;
  cond_checks : (int * int) list;
  failures : failure list;
}

let verified r = r.failures = []

let failing_conditions r =
  List.sort_uniq Int.compare (List.map (fun f -> f.condition) r.failures)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>instance %s: %d states, %d checks: %s@," r.instance r.states r.checks
    (if verified r then "VERIFIED (all six conditions hold)" else "FAILED");
  List.iter
    (fun f -> Fmt.pf ppf "  condition %d violated for %a: %s@," f.condition Colour.pp f.colour f.detail)
    r.failures;
  Fmt.pf ppf "@]"

let pp_summary ppf r =
  Fmt.pf ppf "instance %s: %d states, %d checks: %s" r.instance r.states r.checks
    (if verified r then "VERIFIED (all six conditions hold)"
     else
       Fmt.str "FAILED (condition%s %s, %d counterexample%s)"
         (if List.compare_length_with (failing_conditions r) 1 > 0 then "s" else "")
         (String.concat ", " (List.map string_of_int (failing_conditions r)))
         (List.length r.failures)
         (if List.compare_length_with r.failures 1 > 0 then "s" else ""))

exception Enough

(* Mutable accumulation shared by one checking run. A run that [stop]s
   ends at [max_failures] by raising [Enough]; the online run goes on
   counting checks past it and keeps no further failure. [on_first] sees
   the first failure kept, as it is kept. *)
type acc = {
  mutable checks : int;
  cond : int array;  (* checks per condition, indices 1..6 *)
  mutable failures : failure list;  (* newest first *)
  mutable nfail : int;
  max_failures : int;
  stop : bool;
  on_first : failure -> unit;
  mutable reps : int;  (* Phi classes met, summed over colours — the frontier *)
}

let fresh ?(stop = true) ?(on_first = ignore) max_failures =
  let cond = Array.make 7 0 in
  { checks = 0; cond; failures = []; nfail = 0; max_failures; stop; on_first; reps = 0 }

(* The failure text is formatted only for a failure that is kept. *)
let record acc condition colour fmt =
  if acc.stop || acc.nfail < acc.max_failures then
    Fmt.kstr
      (fun detail ->
        let f = { condition; colour; detail } in
        if acc.nfail = 0 then acc.on_first f;
        acc.failures <- f :: acc.failures;
        acc.nfail <- acc.nfail + 1;
        if acc.stop && acc.nfail >= acc.max_failures then raise Enough)
      fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let tick acc condition =
  acc.checks <- acc.checks + 1;
  acc.cond.(condition) <- acc.cond.(condition) + 1

let report_of instance states acc =
  {
    instance;
    states;
    checks = acc.checks;
    cond_checks = List.init 6 (fun i -> (i + 1, acc.cond.(i + 1)));
    failures = List.rev acc.failures;
  }

(* the frontier of the view-equivalence search, as a live gauge (the
   domain-local registry merges into the global one at join) *)
let publish_frontier acc =
  Sep_obs.Telemetry.set
    (Sep_obs.Telemetry.gauge (Sep_obs.Span.local ()) "separability.frontier")
    (float_of_int acc.reps)

(* Span handles for the profiling surfaces; no-ops unless
   [Sep_obs.Span.set_enabled true] was called. *)
let span_reachable = Sep_obs.Span.make "separability.reachable"
let span_cond12 = Sep_obs.Span.make "separability.cond1_2"
let span_cond3456 = Sep_obs.Span.make "separability.cond3_4_5_6"
let span_cond4 = Sep_obs.Span.make "separability.cond4"

(* Abstract states numbered densely from 0 up to [equal_abstate]. Each
   value is hashed once, and [equal_abstate] runs only against the values
   already numbered under the same hash. [values.(id)] is the first value
   numbered [id]. *)
type 'a intern = {
  by_hash : (int, int list) Hashtbl.t;
  mutable values : 'a array;
  mutable count : int;
}

let intern_create () = { by_hash = Hashtbl.create 64; values = [||]; count = 0 }

let intern sys it a =
  let h = sys.System.hash_abstate a in
  let ids = Option.value ~default:[] (Hashtbl.find_opt it.by_hash h) in
  let rec find = function
    | [] -> -1
    | id :: rest -> if sys.System.equal_abstate a it.values.(id) then id else find rest
  in
  let id = find ids in
  if id >= 0 then id
  else begin
    let id = it.count in
    if id = Array.length it.values then begin
      let grown = Array.make (max 16 (2 * id)) a in
      Array.blit it.values 0 grown 0 id;
      it.values <- grown
    end;
    it.values.(id) <- a;
    it.count <- id + 1;
    Hashtbl.replace it.by_hash h (id :: ids);
    id
  end

(* -- The per-state steps ------------------------------------------------------

   Every driver runs the same steps, on a core [k]. They read Phi through
   views of type ['v]: [same] decides [equal_abstate] on two views of one
   colour, and [value ci v] is the Phi value a view of the [ci]-th colour
   stands for, which failure text and [sanctioned_interference] read. *)
type ('s, 'i, 'o, 'a, 'p, 'v) core = {
  sys : ('s, 'i, 'o, 'a, 'p) System.t;
  colours : Colour.t array;
  inputs : 'i array;
  same : 'v -> 'v -> bool;
  value : int -> 'v -> 'a;
  acc : acc;
}

let core sys acc ~same ~value =
  {
    sys;
    colours = Array.of_list sys.System.colours;
    inputs = Array.of_list sys.System.inputs;
    same;
    value;
    acc;
  }

(* The index of [c] among the system's colours. *)
let colour_index k c =
  let rec go i =
    if i = Array.length k.colours then invalid_arg "Separability: COLOUR outside the colour set"
    else if Colour.equal k.colours.(i) c then i
    else go (i + 1)
  in
  go 0

(* Conditions 1 and 2 for state [s], whose colour is the [ci]-th and
   whose operation is [op]: [before ci'] and [after ci'] are the [ci']-th
   colour's views in [s] and after [op]. Condition 1 compares values:
   the specification's is fresh. *)
let check_op k s op ci ~before ~after =
  let sys = k.sys and acc = k.acc and c = k.colours.(ci) in
  tick acc 1;
  let concrete = k.value ci (after ci) in
  let abstract_op = sys.System.abop c op in
  let spec = abstract_op.System.abop_apply (k.value ci (before ci)) in
  if not (sys.System.equal_abstate concrete spec) then
    record acc 1 c "op %s from state@ %a@ yields@ %a@ but the abstract machine specifies@ %a"
      op.System.op_name sys.System.pp_state s sys.System.pp_abstate concrete sys.System.pp_abstate
      spec;
  Array.iteri
    (fun ci' c' ->
      if ci' <> ci then begin
        tick acc 2;
        let before = before ci' and after = after ci' in
        if not (k.same before after) then begin
          let before = k.value ci' before and after = k.value ci' after in
          if not (sys.System.sanctioned_interference c c' before after) then
            record acc 2 c' "op %s (on behalf of %a) changes %a's view from@ %a@ to@ %a"
              op.System.op_name Colour.pp c Colour.pp c' sys.System.pp_abstate before
              sys.System.pp_abstate after
        end
      end)
    k.colours

(* Condition 4 compares each input with the first earlier input of equal
   c-projection: [partners.(j)] is that input's index, or -1 if input [j]
   is the first of its projection. The pairing depends on c alone. *)
let cond4_partners sys c inputs =
  let groups = ref [] in
  Array.init (Array.length inputs) (fun j ->
      let proj = sys.System.extract_input c inputs.(j) in
      match List.find_opt (fun (p, _) -> sys.System.equal_proj p proj) !groups with
      | None ->
        groups := (proj, j) :: !groups;
        -1
      | Some (_, r) -> r)

(* Within a group of equal c-projection, the post-INPUT views [imgs] of
   state [s] must agree (condition 4). *)
let check_cond4 k partners c s imgs =
  Array.iteri
    (fun j r ->
      if r >= 0 then begin
        tick k.acc 4;
        if not (k.same imgs.(j) imgs.(r)) then
          record k.acc 4 c
            "inputs %a and %a have equal %a-components but give %a different views in state@ %a"
            k.sys.System.pp_input k.inputs.(j) k.sys.System.pp_input k.inputs.(r) Colour.pp c
            Colour.pp c k.sys.System.pp_state s
      end)
    partners

(* One colour's record for conditions 3-6: condition 4's pairing, and
   per Phi^c class, by its number, the first state of the class with its
   post-INPUT views, its c-output and the operation the class's first
   c-active state selects. *)
type ('s, 'v, 'p) classes = {
  partners : int array;
  mutable firsts : ('s * 'v array * 'p * string option ref) option array;
}

let classes k c = { partners = cond4_partners k.sys c k.inputs; firsts = [||] }

(* Condition 4, then conditions 3, 5 and 6 against the first state of
   its class, for the [ci]-th colour in state [s]: [cls] is the number of
   [s]'s class, [imgs] are [s]'s post-INPUT views, [out] its c-output,
   and [op] the name of its operation when [s] is c-active. *)
let check_colour k cl ci s cls imgs out op =
  let sys = k.sys and acc = k.acc and c = k.colours.(ci) in
  (* no closure while spans are off: a deep check runs this per colour *)
  if Sep_obs.Span.enabled () then
    Sep_obs.Span.time span_cond4 (fun () -> check_cond4 k cl.partners c s imgs)
  else check_cond4 k cl.partners c s imgs;
  match if cls < Array.length cl.firsts then cl.firsts.(cls) else None with
  | None ->
    acc.reps <- acc.reps + 1;
    if cls >= Array.length cl.firsts then begin
      let grown = Array.make (max 16 (2 * cls)) None in
      Array.blit cl.firsts 0 grown 0 (Array.length cl.firsts);
      cl.firsts <- grown
    end;
    cl.firsts.(cls) <- Some (s, imgs, out, ref op)
  | Some (first, first_imgs, first_out, first_op) -> (
    (* condition 3: same input, same effect on c's view *)
    Array.iteri
      (fun j img ->
        tick acc 3;
        if not (k.same img first_imgs.(j)) then
          record acc 3 c
            "states@ %a@ and@ %a@ look alike to %a but input %a changes %a's view differently"
            sys.System.pp_state s sys.System.pp_state first Colour.pp c sys.System.pp_input
            k.inputs.(j) Colour.pp c)
      imgs;
    (* condition 5: same output components for c *)
    tick acc 5;
    if not (sys.System.equal_proj out first_out) then
      record acc 5 c "states@ %a@ and@ %a@ look alike to %a but emit different %a-outputs"
        sys.System.pp_state s sys.System.pp_state first Colour.pp c Colour.pp c;
    (* condition 6: same next operation when both are c-active *)
    match (op, !first_op) with
    | None, _ -> ()
    | Some _, None -> first_op := op
    | Some name, Some first_name ->
      tick acc 6;
      if not (String.equal name first_name) then
        record acc 6 c "states@ %a@ and@ %a@ look alike to the active regime %a but select %s vs %s"
          sys.System.pp_state s sys.System.pp_state first Colour.pp c name first_name)

(* -- Colour by colour, over a table --------------------------------------------

   The states under check, indexed. [succ.(k)] is the index of NEXTOP
   applied to state [k], or -1 when the table does not hold it. [view ci
   k] is the view of the [ci]-th colour at state [k], [view_of ci s] the
   same for a state outside the table, [images ci k] the views after each
   input in state [k]. [numbering ci], made once per colour's pass,
   numbers that colour's views by class, densely from 0. *)
type ('s, 'i, 'o, 'a, 'p, 'v) table = {
  k : ('s, 'i, 'o, 'a, 'p, 'v) core;
  states : 's array;
  succ : int array;
  view : int -> int -> 'v;
  view_of : int -> 's -> 'v;
  images : int -> int -> 'v array;
  numbering : int -> 'v -> int;
}

(* The explored graph: a state's post-INPUT states and op successor are
   states of the graph, so every view is a lookup. A view is an id: each
   colour interns every Phi value it computes, once per state, so ids are
   equal iff the values are [equal_abstate], and the checks compare ints.
   The interned value stands in for every value of its class. *)
let graph_views sys acc (g : _ System.graph) =
  let colours = Array.of_list sys.System.colours in
  let ids = Array.map (fun _ -> Array.make (Array.length g.System.states) (-1)) colours in
  let interns = Array.map (fun _ -> intern_create ()) colours in
  let view_of ci s = intern sys interns.(ci) (sys.System.abstract colours.(ci) s) in
  let view ci k =
    let id = ids.(ci).(k) in
    if id >= 0 then id
    else begin
      let id = view_of ci g.System.states.(k) in
      ids.(ci).(k) <- id;
      id
    end
  in
  let table =
    {
      k = core sys acc ~same:Int.equal ~value:(fun ci id -> interns.(ci).values.(id));
      states = g.System.states;
      succ = g.System.after_op;
      view;
      view_of;
      images = (fun ci k -> Array.map (view ci) g.System.after_input.(k));
      numbering = (fun _ id -> id);
    }
  in
  (table, ids, interns)

(* A sample keeps nothing it derives: each colour's pass derives the
   post-INPUT states again, and Phi is computed where it is read. Kept,
   they would live across the whole check, and promoting them costs the
   collector more than computing them again. Views are the values. *)
let table_of_states sys acc states =
  let states = Array.of_list states in
  let k = core sys acc ~same:sys.System.equal_abstate ~value:(fun _ a -> a) in
  let view_of ci s = sys.System.abstract k.colours.(ci) s in
  {
    k;
    states;
    succ = Array.make (Array.length states) (-1);
    view = (fun ci n -> view_of ci states.(n));
    view_of;
    images = (fun ci n -> Array.map (fun i -> view_of ci (sys.System.input states.(n) i)) k.inputs);
    numbering = (fun _ -> intern sys (intern_create ()));
  }

(* Conditions 1 and 2 examine each state's actually-selected operation.
   The views after it are lookups where the table holds the successor;
   otherwise the operation runs here. *)
let check_ops t =
  let sys = t.k.sys in
  Array.iteri
    (fun n s ->
      let op = sys.System.nextop s in
      let ci = colour_index t.k (sys.System.colour_of s) in
      let after =
        let succ = t.succ.(n) in
        if succ >= 0 then fun ci' -> t.view ci' succ
        else begin
          let s' = op.System.op_apply s in
          fun ci' -> t.view_of ci' s'
        end
      in
      check_op t.k s op ci ~before:(fun ci' -> t.view ci' n) ~after)
    t.states

(* Conditions 3-6, colour by colour: each state is compared with the
   first state of its class, found by the class's number. *)
let check_views t =
  let sys = t.k.sys in
  let per_colour ci c =
    let cl = classes t.k c and class_of = t.numbering ci in
    Array.iteri
      (fun n s ->
        let out = sys.System.extract_output c (sys.System.output s) in
        let op =
          if Colour.equal (sys.System.colour_of s) c then Some (sys.System.nextop s).System.op_name
          else None
        in
        check_colour t.k cl ci s (class_of (t.view ci n)) (t.images ci n) out op)
      t.states
  in
  Array.iteri per_colour t.k.colours

(* The naive quantification: every pair of states, compared directly.
   Post-INPUT images are computed per state first so the quadratic part
   is pure comparison. *)
let check_views_pairwise t =
  let sys = t.k.sys and acc = t.k.acc and same = t.k.same in
  let arr = t.states in
  let per_colour ci c =
    let partners = cond4_partners sys c t.k.inputs in
    let info =
      Array.mapi
        (fun k s ->
          let out = sys.System.extract_output c (sys.System.output s) in
          let mine = Colour.equal (sys.System.colour_of s) c in
          let opname = if mine then Some (sys.System.nextop s).System.op_name else None in
          (t.view ci k, t.images ci k, out, opname))
        arr
    in
    Array.iteri
      (fun x s ->
        let _, imgs, _, _ = info.(x) in
        Sep_obs.Span.time span_cond4 (fun () -> check_cond4 t.k partners c s imgs);
        for y = x + 1 to Array.length arr - 1 do
          let a1, imgs1, out1, op1 = info.(x) in
          let a2, imgs2, out2, op2 = info.(y) in
          if same a1 a2 then begin
            Array.iteri
              (fun j img1 ->
                tick acc 3;
                if not (same img1 imgs2.(j)) then
                  record acc 3 c
                    "states@ %a@ and@ %a@ look alike to %a but an input affects them differently"
                    sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c)
              imgs1;
            tick acc 5;
            if not (sys.System.equal_proj out1 out2) then
              record acc 5 c "states@ %a@ and@ %a@ look alike to %a but emit different outputs"
                sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c;
            match (op1, op2) with
            | Some n1, Some n2 ->
              tick acc 6;
              if not (String.equal n1 n2) then
                record acc 6 c
                  "states@ %a@ and@ %a@ look alike to the active regime %a but select %s vs %s"
                  sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c n1 n2
            | _ -> ()
          end
        done)
      arr
  in
  Array.iteri per_colour t.k.colours

(* Conditions 1 and 2, then [views] for 3-6, stopping at [max_failures]. *)
let run t views =
  (try
     Sep_obs.Span.time span_cond12 (fun () -> check_ops t);
     Sep_obs.Span.time span_cond3456 (fun () -> views t)
   with Enough -> ());
  report_of t.k.sys.System.name (Array.length t.states) t.k.acc

let check_states_pairwise ?(max_failures = 20) sys states =
  let r = run (table_of_states sys (fresh max_failures) states) check_views_pairwise in
  { r with instance = r.instance ^ " (pairwise)" }

let run_checks t =
  let report = run t check_views in
  publish_frontier t.k.acc;
  report

let check ?state_limit ?(max_failures = 20) sys =
  let t, _, _ =
    Sep_obs.Span.time span_reachable (fun () ->
        graph_views sys (fresh max_failures) (System.explore ?limit:state_limit sys))
  in
  run_checks t

let interned_views sys g =
  let t, ids, interns = graph_views sys (fresh max_int) g in
  ignore (run_checks t);
  (ids, Array.map (fun it -> Array.sub it.values 0 it.count) interns)

let check_states ?(max_failures = 20) sys states =
  run_checks (table_of_states sys (fresh max_failures) states)

(* -- State by state ------------------------------------------------------------

   Views are values. Per colour, the driver keeps the Phi values of the
   states it has checked, one per class in the intern table, and the
   first state of each class; nothing else of those states. *)
type ('s, 'i, 'o, 'a, 'p) online = {
  k : ('s, 'i, 'o, 'a, 'p, 'a) core;
  interns : 'a intern array;
  classes : ('s, 'a, 'p) classes array;
  mutable checked : int;
}

let online ?(max_failures = 20) ?(on_first_failure = ignore) sys =
  let acc = fresh ~stop:false ~on_first:on_first_failure max_failures in
  let k = core sys acc ~same:sys.System.equal_abstate ~value:(fun _ a -> a) in
  {
    k;
    interns = Array.map (fun _ -> intern_create ()) k.colours;
    classes = Array.map (classes k) k.colours;
    checked = 0;
  }

(* All six conditions for [s]. Its post-INPUT states and output do not
   depend on the colour, so they are built once and only abstracted per
   colour: INPUT works on a copy and Phi only reads, so every check sees
   the values it would see if each colour built its own. A post-INPUT
   state [equal_state] to [s] (an input that changes nothing, the common
   case) has [s]'s views, since Phi^c respects [equal_state]. *)
let check_next o s =
  let k = o.k in
  let sys = k.sys and acc = k.acc in
  let nfail = acc.nfail and reps = acc.reps in
  o.checked <- o.checked + 1;
  let phis = Array.map (fun c -> sys.System.abstract c s) k.colours in
  let op = sys.System.nextop s in
  let active = colour_index k (sys.System.colour_of s) in
  let s' = op.System.op_apply s in
  check_op k s op active ~before:(Array.get phis) ~after:(fun ci ->
      sys.System.abstract k.colours.(ci) s');
  let posts =
    Array.map
      (fun i ->
        let s' = sys.System.input s i in
        if sys.System.equal_state s' s then None else Some s')
      k.inputs
  in
  let output = sys.System.output s in
  Array.iteri
    (fun ci c ->
      let imgs =
        Array.map (function Some s' -> sys.System.abstract c s' | None -> phis.(ci)) posts
      in
      let cls = intern sys o.interns.(ci) phis.(ci) in
      let op = if ci = active then Some op.System.op_name else None in
      check_colour k o.classes.(ci) ci s cls imgs (sys.System.extract_output c output) op)
    k.colours;
  if acc.reps > reps then publish_frontier acc;
  List.rev (List.filteri (fun j _ -> j < acc.nfail - nfail) acc.failures)

let online_report o = report_of o.k.sys.System.name o.checked o.k.acc

let report_to_json r =
  let module J = Sep_util.Json in
  J.Obj
    [
      ("instance", J.String r.instance);
      ("states", J.Int r.states);
      ("checks", J.Int r.checks);
      ( "cond_checks",
        J.Obj (List.map (fun (c, n) -> (string_of_int c, J.Int n)) r.cond_checks) );
      ("verified", J.Bool (verified r));
      ("failing_conditions", J.List (List.map (fun c -> J.Int c) (failing_conditions r)));
      ( "failures",
        J.List
          (List.map
             (fun f ->
               J.Obj
                 [
                   ("condition", J.Int f.condition);
                   ("colour", J.String (Colour.name f.colour));
                   ("detail", J.String f.detail);
                 ])
             r.failures) );
    ]
