module Colour = Sep_model.Colour
module System = Sep_model.System

(* The monitor is the checker's state-by-state driver, plus the step each
   state is attributed to and the flight-recorder dump. *)
type ('s, 'i, 'o, 'a, 'p) t = {
  checker : ('s, 'i, 'o, 'a, 'p) Separability.online;
  step : int ref;  (* the step of the state being fed *)
  first : (int * Separability.failure) option ref;
}

(* The first failure flushes the flight recorder before the rest of its
   state's checks run: the ring holds the causal events leading up to
   this step. *)
let create ?max_failures sys =
  let step = ref 0 and first = ref None in
  let on_first_failure (f : Separability.failure) =
    first := Some (!step, f);
    Sep_obs.Trace.instant ~cat:"monitor"
      ~args:
        [
          ("condition", Sep_util.Json.Int f.condition);
          ("colour", Sep_util.Json.String (Colour.name f.colour));
          ("step", Sep_util.Json.Int !step);
        ]
      "violation";
    Sep_obs.Trace.dump
      ~reason:(Fmt.str "separability violation: condition %d at step %d" f.condition !step)
  in
  { checker = Separability.online ?max_failures ~on_first_failure sys; step; first }

let report t = Separability.online_report t.checker
let first_violation t = !(t.first)

let feed ?step t s =
  t.step := (match step with Some n -> n | None -> (report t).Separability.states);
  Separability.check_next t.checker s

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
