module Colour = Sep_model.Colour
module System = Sep_model.System

(* One Phi^c-equivalence bucket entry: the representative's abstraction,
   the representative itself, its post-INPUT images, its c-output
   projection and the operation name the first c-active member selected —
   exactly the tuple the offline [Separability.check_views] keeps, so the
   comparisons (and the check counts) are the same ones, performed as the
   states arrive instead of after the run. *)
type ('s, 'i, 'a, 'p) bucket_entry = 'a * 's * ('i * 'a) list * 'p * string option ref

type ('s, 'i, 'o, 'a, 'p) t = {
  sys : ('s, 'i, 'o, 'a, 'p) System.t;
  tables : (Colour.t * (int, ('s, 'i, 'a, 'p) bucket_entry list ref) Hashtbl.t) list;
  max_failures : int;
  mutable states : int;
  mutable checks : int;
  cond : int array;  (* checks per condition, indices 1..6 *)
  mutable viols : (int * Separability.failure) list;  (* newest first *)
  mutable nfail : int;
  mutable reps : int;  (* bucket representatives = tracked frontier *)
}

let frontier_gauge () =
  Sep_obs.Telemetry.gauge (Sep_obs.Span.local ()) "separability.frontier"

let create ?(max_failures = 20) sys =
  {
    sys;
    tables = List.map (fun c -> (c, Hashtbl.create 64)) sys.System.colours;
    max_failures;
    states = 0;
    checks = 0;
    cond = Array.make 7 0;
    viols = [];
    nfail = 0;
    reps = 0;
  }

let frontier t = t.reps
let violations t = List.rev t.viols

let first_violation t =
  match List.rev t.viols with [] -> None | first :: _ -> Some first

let tick t condition =
  t.checks <- t.checks + 1;
  t.cond.(condition) <- t.cond.(condition) + 1

(* The first violation flushes the flight recorder: the ring holds the
   causal events leading up to this step. *)
let record t ~step fresh condition colour detail =
  if t.nfail < t.max_failures then begin
    let f = { Separability.condition; colour; detail } in
    if t.viols = [] then begin
      Sep_obs.Trace.instant ~cat:"monitor"
        ~args:
          [
            ("condition", Sep_util.Json.Int condition);
            ("colour", Sep_util.Json.String (Colour.name colour));
            ("step", Sep_util.Json.Int step);
          ]
        "violation";
      ignore
        (Sep_obs.Trace.dump
           ~reason:(Fmt.str "separability violation: condition %d at step %d" condition step))
    end;
    t.viols <- (step, f) :: t.viols;
    t.nfail <- t.nfail + 1;
    fresh := f :: !fresh
  end

(* Conditions 1 and 2 on the state's actually-selected operation — the
   per-state half of [Separability.check_ops]. [phis] is Phi^c(s) for
   every colour, in colour order. *)
let check_ops t ~step fresh s phis =
  let sys = t.sys in
  let op = sys.System.nextop s in
  let c = sys.System.colour_of s in
  let s' = op.System.op_apply s in
  tick t 1;
  let concrete = sys.System.abstract c s' in
  let abstract_op = sys.System.abop c op in
  let phi_c = snd (List.find (fun (c', _) -> Colour.equal c' c) phis) in
  let spec = abstract_op.System.abop_apply phi_c in
  if not (sys.System.equal_abstate concrete spec) then
    record t ~step fresh 1 c
      (Fmt.str "op %s from state@ %a@ yields@ %a@ but the abstract machine specifies@ %a"
         op.System.op_name sys.System.pp_state s sys.System.pp_abstate concrete
         sys.System.pp_abstate spec);
  List.iter
    (fun (c', before) ->
      if not (Colour.equal c' c) then begin
        tick t 2;
        let after = sys.System.abstract c' s' in
        if
          (not (sys.System.equal_abstate before after))
          && not (sys.System.sanctioned_interference c c' before after)
        then
          record t ~step fresh 2 c'
            (Fmt.str "op %s (on behalf of %a) changes %a's view from@ %a@ to@ %a"
               op.System.op_name Colour.pp c Colour.pp c' sys.System.pp_abstate before
               sys.System.pp_abstate after)
      end)
    phis

(* Condition 4: inputs with equal c-projections must give this state equal
   post-INPUT views. Grouping is local to the state, as offline. *)
let check_cond4 t ~step fresh c s images =
  let sys = t.sys in
  let groups = ref [] in
  List.iter
    (fun (i, img) ->
      let proj = sys.System.extract_input c i in
      match List.find_opt (fun (p, _, _) -> sys.System.equal_proj p proj) !groups with
      | None -> groups := (proj, img, i) :: !groups
      | Some (_, rep_img, rep_i) ->
        tick t 4;
        if not (sys.System.equal_abstate img rep_img) then
          record t ~step fresh 4 c
            (Fmt.str
               "inputs %a and %a have equal %a-components but give %a different views in state@ %a"
               sys.System.pp_input i sys.System.pp_input rep_i Colour.pp c Colour.pp c
               sys.System.pp_state s))
    images

(* Conditions 3, 5, 6 against the Phi^c-bucket representative. The
   post-INPUT states and the output do not depend on the colour, so they
   are built once per state and only abstracted per colour: INPUT works
   on a copy and Phi only reads, so every check sees the values it would
   see if each colour built its own. *)
let check_views t ~step fresh s phis =
  let sys = t.sys in
  let posts = List.map (fun i -> (i, sys.System.input s i)) sys.System.inputs in
  let output = sys.System.output s in
  List.iter2
    (fun (c, tbl) (_, a) ->
      let imgs = List.map (fun (i, s') -> (i, sys.System.abstract c s')) posts in
      check_cond4 t ~step fresh c s imgs;
      let out = sys.System.extract_output c output in
      let mine = Colour.equal (sys.System.colour_of s) c in
      let h = sys.System.hash_abstate a in
      let bucket_list =
        match Hashtbl.find_opt tbl h with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.add tbl h l;
          l
      in
      match List.find_opt (fun (a', _, _, _, _) -> sys.System.equal_abstate a a') !bucket_list with
      | None ->
        let op6 = ref (if mine then Some (sys.System.nextop s).System.op_name else None) in
        bucket_list := (a, s, imgs, out, op6) :: !bucket_list;
        t.reps <- t.reps + 1;
        Sep_obs.Telemetry.set (frontier_gauge ()) (float_of_int t.reps)
      | Some (_, rep, rep_imgs, rep_out, rep_op) ->
        List.iter2
          (fun (i, img) (_, rep_img) ->
            tick t 3;
            if not (sys.System.equal_abstate img rep_img) then
              record t ~step fresh 3 c
                (Fmt.str
                   "states@ %a@ and@ %a@ look alike to %a but input %a changes %a's view \
                    differently"
                   sys.System.pp_state s sys.System.pp_state rep Colour.pp c sys.System.pp_input i
                   Colour.pp c))
          imgs rep_imgs;
        tick t 5;
        if not (sys.System.equal_proj out rep_out) then
          record t ~step fresh 5 c
            (Fmt.str "states@ %a@ and@ %a@ look alike to %a but emit different %a-outputs"
               sys.System.pp_state s sys.System.pp_state rep Colour.pp c Colour.pp c);
        if mine then begin
          let name = (sys.System.nextop s).System.op_name in
          match !rep_op with
          | None -> rep_op := Some name
          | Some rep_name ->
            tick t 6;
            if not (String.equal name rep_name) then
              record t ~step fresh 6 c
                (Fmt.str
                   "states@ %a@ and@ %a@ look alike to the active regime %a but select %s vs %s"
                   sys.System.pp_state s sys.System.pp_state rep Colour.pp c name rep_name)
        end)
    t.tables phis

let feed ?step t s =
  let step = match step with Some n -> n | None -> t.states in
  let fresh = ref [] in
  t.states <- t.states + 1;
  (* Phi^c(s) once per colour, shared by both passes *)
  let phis = List.map (fun c -> (c, t.sys.System.abstract c s)) t.sys.System.colours in
  check_ops t ~step fresh s phis;
  check_views t ~step fresh s phis;
  List.rev !fresh

let report t =
  {
    Separability.instance = t.sys.System.name;
    states = t.states;
    checks = t.checks;
    cond_checks = List.init 6 (fun i -> (i + 1, t.cond.(i + 1)));
    failures = List.rev_map (fun (_, f) -> f) t.viols;
  }

(* -- Watching a live kernel ------------------------------------------------- *)

(* The kernel type is fixed here, but the abstraction parameters of the
   packaged system are not worth naming: the watch closes over them. *)
type swatch = {
  w_kernel : Sue.t;
  w_period : int;
  mutable w_steps : int;
  mutable w_deep : int;
  mutable w_last_audit : int;
  w_feed : int -> unit;
  w_report : unit -> Separability.report;
  w_first : unit -> (int * Separability.failure) option;
}

(* A deep check runs INPUT and the next operation on copies of the
   watched kernel. They are detached: a checkpoint, an audit record or a
   count that a hypothetical state makes stays off the live kernel, whose
   audit count triggers the checks themselves. *)
let watch ?(period = 500) ?max_failures ?(sanction_channels = false) ~inputs kernel =
  let snapshot = Sue.detached_copies kernel in
  let sys = Sue.system_of_kernel ~sanction_channels ~inputs (snapshot ()) in
  let mon = create ?max_failures sys in
  let w =
    {
      w_kernel = kernel;
      w_period = max 1 period;
      w_steps = 0;
      w_deep = 0;
      w_last_audit = Sue.audit_count kernel;
      w_feed = (fun step -> ignore (feed ~step mon (snapshot ())));
      w_report = (fun () -> report mon);
      w_first = (fun () -> first_violation mon);
    }
  in
  w.w_deep <- 1;
  w.w_feed 0;
  w

let observe w =
  w.w_steps <- w.w_steps + 1;
  let a = Sue.audit_count w.w_kernel in
  if a <> w.w_last_audit || w.w_steps mod w.w_period = 0 then begin
    w.w_last_audit <- a;
    w.w_deep <- w.w_deep + 1;
    w.w_feed w.w_steps
  end

let watch_steps w = w.w_steps
let deep_checks w = w.w_deep
let watch_report w = w.w_report ()
let watch_first_violation w = w.w_first ()
