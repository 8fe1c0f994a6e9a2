module Prng = Sep_util.Prng

type budget = {
  max_runs : int;
  max_shrink_steps : int;
  deadline : float option;
}

let budget ?(max_runs = 200) ?(max_shrink_steps = 1000) ?deadline () =
  { max_runs; max_shrink_steps; deadline }

let default_budget = budget ()

type 'a counterexample = {
  cx_seed : int;
  cx_run : int;
  cx_original : 'a;
  cx_minimized : 'a;
  cx_shrink_steps : int;
  cx_message : string;
}

type 'a outcome =
  | Passed of int
  | Failed of 'a counterexample

let run ?(budget = default_budget) ?(shrink = Shrink.nothing) ~seed gen prop =
  let master = Prng.create seed in
  let started = Unix.gettimeofday () in
  let expired () =
    match budget.deadline with
    | None -> false
    | Some limit -> Unix.gettimeofday () -. started > limit
  in
  let rec attempt n =
    if n > budget.max_runs || (n > 1 && expired ()) then Passed (n - 1)
    else
      let value = gen (Prng.split master) in
      match prop value with
      | Ok () -> attempt (n + 1)
      | Error message ->
        let still_failing v = Result.is_error (prop v) in
        let minimized, steps =
          Shrink.minimize ~max_steps:budget.max_shrink_steps ~still_failing shrink value
        in
        let cx_message =
          match prop minimized with Error m -> m | Ok () -> message
        in
        Failed
          {
            cx_seed = seed;
            cx_run = n;
            cx_original = value;
            cx_minimized = minimized;
            cx_shrink_steps = steps;
            cx_message;
          }
  in
  attempt 1

let check ?budget ?shrink ?(pp = fun ppf _ -> Fmt.string ppf "<value>") ~name ~seed gen prop =
  match run ?budget ?shrink ~seed gen prop with
  | Passed _ -> ()
  | Failed cx ->
    failwith
      (Fmt.str "property %s failed (seed %d, run %d, %d shrink steps): %s@.minimized: %a" name
         cx.cx_seed cx.cx_run cx.cx_shrink_steps cx.cx_message pp cx.cx_minimized)
