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

(* Mutable accumulation shared by one checking run. *)
type acc = {
  mutable checks : int;
  cond : int array;  (* checks per condition, indices 1..6 *)
  mutable failures : failure list;
  mutable nfail : int;
  max_failures : int;
  mutable reps : int;  (* distinct abstractions bucketed — the frontier *)
}

let fresh max_failures =
  { checks = 0; cond = Array.make 7 0; failures = []; nfail = 0; max_failures; reps = 0 }

let record acc condition colour detail =
  acc.failures <- { condition; colour; detail } :: acc.failures;
  acc.nfail <- acc.nfail + 1;
  if acc.nfail >= acc.max_failures then raise Enough

let tick acc condition =
  acc.checks <- acc.checks + 1;
  acc.cond.(condition) <- acc.cond.(condition) + 1

let cond_checks_of acc = List.init 6 (fun i -> (i + 1, acc.cond.(i + 1)))

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

(* The states under check, indexed. [succ.(k)] is the index of NEXTOP
   applied to state [k], or -1 when the table does not hold it.

   The checks read Phi through views of type ['v]: [view ci k] is the
   view of the [ci]-th colour at state [k], [view_of ci s] the same for a
   state outside the table, [images ci k] the views after each input in
   state [k]. [same] decides [equal_abstate] on two views of one colour,
   and [value ci v] is the Phi value a view stands for, which failure
   text and [sanctioned_interference] read. [numbering ci], made once
   per colour's pass, numbers that colour's views by class, densely from
   0: conditions 3, 5 and 6 bucket by it. *)
type ('s, 'a, 'v) table = {
  states : 's array;
  succ : int array;
  colours : Colour.t array;
  view : int -> int -> 'v;
  view_of : int -> 's -> 'v;
  images : int -> int -> 'v array;
  same : 'v -> 'v -> bool;
  value : int -> 'v -> 'a;
  numbering : int -> 'v -> int;
}

(* The explored graph: a state's post-INPUT states and op successor are
   states of the graph, so every view is a lookup. A view is an id: each
   colour interns every Phi value it computes, once per state, so ids are
   equal iff the values are [equal_abstate], and the checks compare ints.
   The interned value stands in for every value of its class. *)
let graph_views sys (g : _ System.graph) =
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
      states = g.System.states;
      succ = g.System.after_op;
      colours;
      view;
      view_of;
      images = (fun ci k -> Array.map (view ci) g.System.after_input.(k));
      same = Int.equal;
      value = (fun ci id -> interns.(ci).values.(id));
      numbering = (fun _ id -> id);
    }
  in
  (table, ids, interns)

(* A sample keeps nothing it derives: each colour's pass derives the
   post-INPUT states again, and Phi is computed where it is read. Kept,
   they would live across the whole check, and promoting them costs the
   collector more than computing them again. Views are the values. *)
let table_of_states sys states =
  let states = Array.of_list states in
  let colours = Array.of_list sys.System.colours in
  let inputs = Array.of_list sys.System.inputs in
  let view_of ci s = sys.System.abstract colours.(ci) s in
  {
    states;
    succ = Array.make (Array.length states) (-1);
    colours;
    view = (fun ci k -> view_of ci states.(k));
    view_of;
    images = (fun ci k -> Array.map (fun i -> view_of ci (sys.System.input states.(k) i)) inputs);
    same = sys.System.equal_abstate;
    value = (fun _ a -> a);
    numbering = (fun _ -> intern sys (intern_create ()));
  }

(* The index of [c] among the system's colours. *)
let colour_index t c =
  let rec go i =
    if i = Array.length t.colours then invalid_arg "Separability: COLOUR outside the colour set"
    else if Colour.equal t.colours.(i) c then i
    else go (i + 1)
  in
  go 0

(* Conditions 1 and 2 examine each state's actually-selected operation.
   The views after it are lookups where the table holds the successor;
   otherwise the operation runs here. Condition 1 compares values: the
   specification's is fresh. *)
let check_ops sys acc t =
  for k = 0 to Array.length t.states - 1 do
    let s = t.states.(k) in
    let op = sys.System.nextop s in
    let c = sys.System.colour_of s in
    let ci = colour_index t c in
    let after =
      let succ = t.succ.(k) in
      if succ >= 0 then fun ci' -> t.view ci' succ
      else begin
        let s' = op.System.op_apply s in
        fun ci' -> t.view_of ci' s'
      end
    in
    tick acc 1;
    let concrete = t.value ci (after ci) in
    let abstract_op = sys.System.abop c op in
    let spec = abstract_op.System.abop_apply (t.value ci (t.view ci k)) in
    if not (sys.System.equal_abstate concrete spec) then
      record acc 1 c
        (Fmt.str "op %s from state@ %a@ yields@ %a@ but the abstract machine specifies@ %a"
           op.System.op_name sys.System.pp_state s sys.System.pp_abstate concrete
           sys.System.pp_abstate spec);
    Array.iteri
      (fun ci' c' ->
        if not (Colour.equal c' c) then begin
          tick acc 2;
          let before = t.view ci' k and after = after ci' in
          if not (t.same before after) then begin
            let before = t.value ci' before and after = t.value ci' after in
            if not (sys.System.sanctioned_interference c c' before after) then
              record acc 2 c'
                (Fmt.str "op %s (on behalf of %a) changes %a's view from@ %a@ to@ %a"
                   op.System.op_name Colour.pp c Colour.pp c' sys.System.pp_abstate before
                   sys.System.pp_abstate after)
          end
        end)
      t.colours
  done

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
let check_cond4 sys acc t inputs partners c s imgs =
  Sep_obs.Span.time span_cond4 @@ fun () ->
  Array.iteri
    (fun j r ->
      if r >= 0 then begin
        tick acc 4;
        if not (t.same imgs.(j) imgs.(r)) then
          record acc 4 c
            (Fmt.str "inputs %a and %a have equal %a-components but give %a different views in state@ %a"
               sys.System.pp_input inputs.(j) sys.System.pp_input inputs.(r) Colour.pp c Colour.pp c
               sys.System.pp_state s)
      end)
    partners

(* Conditions 3, 5, 6 compare states with equal Phi^c: each state is
   compared with the first state of its class, found by the class's
   number. *)
let check_views sys acc t =
  let inputs = Array.of_list sys.System.inputs in
  let per_colour ci c =
    let partners = cond4_partners sys c inputs in
    let class_of = t.numbering ci in
    (* the first state of each class: the state, its post-INPUT views,
       its c-output and the operation the first c-active member selects *)
    let reps = ref [||] in
    let examine k s =
      let imgs = t.images ci k in
      check_cond4 sys acc t inputs partners c s imgs;
      let out = sys.System.extract_output c (sys.System.output s) in
      let mine = Colour.equal (sys.System.colour_of s) c in
      let cls = class_of (t.view ci k) in
      match if cls < Array.length !reps then !reps.(cls) else None with
      | None ->
        let op6 = ref (if mine then Some (sys.System.nextop s).System.op_name else None) in
        acc.reps <- acc.reps + 1;
        if cls >= Array.length !reps then begin
          let grown = Array.make (max 16 (2 * cls)) None in
          Array.blit !reps 0 grown 0 (Array.length !reps);
          reps := grown
        end;
        !reps.(cls) <- Some (s, imgs, out, op6)
      | Some (rep, rep_imgs, rep_out, rep_op) ->
        (* condition 3: same input, same effect on c's view *)
        Array.iteri
          (fun j img ->
            tick acc 3;
            if not (t.same img rep_imgs.(j)) then
              record acc 3 c
                (Fmt.str
                   "states@ %a@ and@ %a@ look alike to %a but input %a changes %a's view differently"
                   sys.System.pp_state s sys.System.pp_state rep Colour.pp c sys.System.pp_input
                   inputs.(j) Colour.pp c))
          imgs;
        (* condition 5: same output components for c *)
        tick acc 5;
        if not (sys.System.equal_proj out rep_out) then
          record acc 5 c
            (Fmt.str "states@ %a@ and@ %a@ look alike to %a but emit different %a-outputs"
               sys.System.pp_state s sys.System.pp_state rep Colour.pp c Colour.pp c);
        (* condition 6: same next operation when both are c-active *)
        if mine then begin
          let name = (sys.System.nextop s).System.op_name in
          match !rep_op with
          | None -> rep_op := Some name
          | Some rep_name ->
            tick acc 6;
            if not (String.equal name rep_name) then
              record acc 6 c
                (Fmt.str
                   "states@ %a@ and@ %a@ look alike to the active regime %a but select %s vs %s"
                   sys.System.pp_state s sys.System.pp_state rep Colour.pp c name rep_name)
        end
    in
    Array.iteri examine t.states
  in
  Array.iteri per_colour t.colours

(* The naive quantification: every pair of states, compared directly.
   Post-INPUT images are computed per state first so the quadratic part
   is pure comparison. *)
let check_views_pairwise sys acc t =
  let inputs = Array.of_list sys.System.inputs in
  let arr = t.states in
  let per_colour ci c =
    let partners = cond4_partners sys c inputs in
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
        check_cond4 sys acc t inputs partners c s imgs;
        for y = x + 1 to Array.length arr - 1 do
          let a1, imgs1, out1, op1 = info.(x) in
          let a2, imgs2, out2, op2 = info.(y) in
          if t.same a1 a2 then begin
            Array.iteri
              (fun j img1 ->
                tick acc 3;
                if not (t.same img1 imgs2.(j)) then
                  record acc 3 c
                    (Fmt.str "states@ %a@ and@ %a@ look alike to %a but an input affects them \
                              differently"
                       sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c))
              imgs1;
            tick acc 5;
            if not (sys.System.equal_proj out1 out2) then
              record acc 5 c
                (Fmt.str "states@ %a@ and@ %a@ look alike to %a but emit different outputs"
                   sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c);
            match (op1, op2) with
            | Some n1, Some n2 ->
              tick acc 6;
              if not (String.equal n1 n2) then
                record acc 6 c
                  (Fmt.str "states@ %a@ and@ %a@ look alike to the active regime %a but select \
                            %s vs %s"
                     sys.System.pp_state s sys.System.pp_state arr.(y) Colour.pp c n1 n2)
            | _ -> ()
          end
        done)
      arr
  in
  Array.iteri per_colour t.colours

(* Conditions 1 and 2, then [views] for 3-6, stopping at [max_failures]. *)
let run sys t max_failures views =
  let acc = fresh max_failures in
  (try
     Sep_obs.Span.time span_cond12 (fun () -> check_ops sys acc t);
     Sep_obs.Span.time span_cond3456 (fun () -> views sys acc t)
   with Enough -> ());
  acc

let report_of instance t acc =
  {
    instance;
    states = Array.length t.states;
    checks = acc.checks;
    cond_checks = cond_checks_of acc;
    failures = List.rev acc.failures;
  }

let check_states_pairwise ?(max_failures = 20) sys states =
  let t = table_of_states sys states in
  report_of (sys.System.name ^ " (pairwise)") t (run sys t max_failures check_views_pairwise)

let run_checks sys t max_failures =
  let acc = run sys t max_failures check_views in
  (* publish the frontier of the view-equivalence search as a live gauge
     (the domain-local registry merges into the global one at join) *)
  Sep_obs.Telemetry.set
    (Sep_obs.Telemetry.gauge (Sep_obs.Span.local ()) "separability.frontier")
    (float_of_int acc.reps);
  report_of sys.System.name t acc

let check ?state_limit ?(max_failures = 20) sys =
  let t, _, _ =
    Sep_obs.Span.time span_reachable (fun () ->
        graph_views sys (System.explore ?limit:state_limit sys))
  in
  run_checks sys t max_failures

let interned_views sys g =
  let t, ids, interns = graph_views sys g in
  ignore (run_checks sys t max_int);
  (ids, Array.map (fun it -> Array.sub it.values 0 it.count) interns)

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

let check_states ?(max_failures = 20) sys states =
  run_checks sys (table_of_states sys states) max_failures
