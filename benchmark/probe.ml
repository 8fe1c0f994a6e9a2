(* Clock, sampled call timers, round and set-up timing, and the result
   records shared by the four workloads. Everything here measures from outside:
   the benchmark wraps calls into a layer's public functions and never
   reaches into the library. *)

module Stats = Sep_util.Stats

(* -- Clock ------------------------------------------------------------------ *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9
let since t0 = now () -. t0

(* The cost of one clock read, taken as the median of back-to-back reads;
   subtracted from every timed sample so that a 100 ns call is not
   reported as 100 ns plus the clock. *)
let clock_ns =
  lazy
    (let d =
       Array.init 4001 (fun _ ->
           let a = now_ns () in
           Int64.to_float (Int64.sub (now_ns ()) a))
     in
     Array.sort compare d;
     d.(2000))

(* -- Sampled call timers ---------------------------------------------------- *)

(* Counts every call exactly and times one call in [sample_period], so the
   clock does not swamp calls that take a few hundred nanoseconds. *)
type timer = {
  mutable calls : int;
  mutable samples : int;
  mutable sampled_ns : float;
}

let sample_period = 64
let timer () = { calls = 0; samples = 0; sampled_ns = 0.0 }

let record tm t0 =
  tm.sampled_ns <- tm.sampled_ns +. Int64.to_float (Int64.sub (now_ns ()) t0);
  tm.samples <- tm.samples + 1

let timed tm f x =
  let n = tm.calls in
  tm.calls <- n + 1;
  if n land (sample_period - 1) <> 0 then f x
  else begin
    let t0 = now_ns () in
    let r = f x in
    record tm t0;
    r
  end

(* [timed] for two-argument functions, without a tuple per call on paths
   called millions of times ([equal_state]). *)
let timed2 tm f x y =
  let n = tm.calls in
  tm.calls <- n + 1;
  if n land (sample_period - 1) <> 0 then f x y
  else begin
    let t0 = now_ns () in
    let r = f x y in
    record tm t0;
    r
  end

(* Time this call unconditionally (for rare, expensive calls). *)
let always tm f x =
  tm.calls <- tm.calls + 1;
  let t0 = now_ns () in
  let r = f x in
  record tm t0;
  r

let merge timers =
  List.fold_left
    (fun acc tm ->
      {
        calls = acc.calls + tm.calls;
        samples = acc.samples + tm.samples;
        sampled_ns = acc.sampled_ns +. tm.sampled_ns;
      })
    (timer ()) timers

(* Mean host nanoseconds per call, clock cost removed; 0 with no samples. *)
let mean_ns tm =
  if tm.samples = 0 then 0.0
  else Float.max 0.0 ((tm.sampled_ns /. float_of_int tm.samples) -. Lazy.force clock_ns)

(* Estimated host seconds spent in all calls. *)
let total_s tm = float_of_int tm.calls *. mean_ns tm *. 1e-9

(* -- Ratios ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_k n steps = ratio (1000.0 *. float_of_int n) (float_of_int steps)

(* -- Run settings and results ----------------------------------------------- *)

type cfg = {
  seed : int;
  seconds : float;  (** the measuring budget of one untraced run *)
  smoke : bool;  (** ~1/20 length, every oracle, no timing claims *)
}

type metric = {
  name : string;
  value : float option;  (** [None]: not measured *)
  unit_ : string;
  note : string;
}

let metric ?(note = "") name unit_ v = { name; value = Some v; unit_; note }
let count ?note name n = metric ?note name "count" (float_of_int n)

(* An untraced workload run. *)
type run = {
  metrics : metric list;  (** exactly the end-to-end metrics *)
  info : metric list;  (** workload-specific figures, printed but not gated *)
  attempted : int;
  failed : int;
  mismatches : string list;
}

(* One layer group of the traced ledger. [residual_frac] is the share of
   the group's wall time that none of its call timers covers;
   [overhead_frac] is the group's untraced throughput over its traced
   throughput, minus 1. *)
type group = {
  layer_metrics : metric list;
  group_attempted : int;
  group_failed : int;
  group_mismatches : string list;
  residual_frac : float;
  overhead_frac : float;
}

(* Seconds per call of [f]: [f] repeated until 10 ms have passed, so that
   a set-up of a few microseconds is not all timer and cache noise. *)
let setup_sample f =
  let t0 = now () in
  let rec go n =
    ignore (Sys.opaque_identity (f ()));
    let dt = since t0 in
    if dt < 0.01 then go (n + 1) else dt /. float_of_int n
  in
  go 1

(* Repeat [round] until another round of typical length would overrun the
   budget, running at least one (exactly one in a smoke run). Three
   set-up samples are taken before every round and after the last, so
   that the set-up is timed across the whole run, under the same load as
   the rounds, and not only in its first moments. A full major
   collection first clears the garbage the rounds left, so that a sample
   pays for its own collection work only. Returns the median set-up
   sample and the rounds. *)
let rounds cfg ~setup round =
  let samples = ref [] in
  let sample () =
    Gc.full_major ();
    samples := List.init 3 (fun _ -> setup_sample setup) @ !samples
  in
  let start = now () in
  let rec go acc durations =
    sample ();
    let elapsed = since start in
    if acc <> [] && (cfg.smoke || elapsed +. Stats.percentile 50.0 durations > cfg.seconds) then
      List.rev acc
    else begin
      let t0 = now () in
      let r = round () in
      go (r :: acc) (since t0 :: durations)
    end
  in
  let rs = go [] [] in
  (Stats.percentile 50.0 !samples, rs)

(* Percentile [p] over answers, each answer's time being its median over
   the rounds that repeated it. *)
let answer_percentile p per_round =
  let answers = List.length (List.hd per_round) in
  Stats.percentile p
    (List.init answers (fun i -> Stats.percentile 50.0 (List.map (fun r -> List.nth r i) per_round)))
