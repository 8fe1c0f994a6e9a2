(** Metric registry: counters, gauges and log-bucketed latency histograms.

    The observability substrate of the reproduction. A registry is a named
    collection of metrics; handles ({!counter}, {!gauge}, {!histogram}) are
    obtained once and updated in O(1) with no further lookups, so metrics
    can live on kernel hot paths. Registries are mergeable (for combining
    per-run or per-worker snapshots) and serialize to JSON through
    {!Sep_util.Json} for the JSONL sinks.

    Histograms are log-bucketed: observations land in geometric buckets
    with growth ratio [2^(1/4)], so every quantile estimate carries at most
    ~9% relative error while the histogram itself stays a fixed 256-word
    array — mergeable by plain addition and far cheaper than retaining
    samples. *)

type t
(** A metric registry. *)

type counter
(** A monotone integer counter. *)

type gauge
(** A point-in-time float value. *)

type histogram
(** A distribution sketch with p50/p90/p99 quantile estimates. *)

val create : unit -> t

val counter : t -> string -> counter
(** Find or register the counter [name]. Raises [Invalid_argument] if the
    name is already registered as a different metric kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1). *)

val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one observation (seconds, for span histograms; any nonnegative
    unit in general — nonpositive values land in the lowest bucket). *)

val count : histogram -> int
val sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h p] for [p] in [[0, 1]]: the geometric midpoint of the
    bucket holding the [p]-th ranked observation, clamped to the exact
    observed min/max. [0.] when the histogram is empty. *)

val p50 : histogram -> float
val p95 : histogram -> float
val p99 : histogram -> float
(** The standard latency quantiles, [quantile h 0.5] etc. — the values the
    JSON snapshot and the bench reports quote. *)

val hist_min : histogram -> float
val hist_max : histogram -> float

val reset : t -> unit
(** Zero every metric, keeping registrations. *)

val merge : into:t -> t -> unit
(** Fold the source registry into [into]: counters and histogram buckets
    add; a gauge takes the source's value. Metrics absent from [into] are
    registered. Raises [Invalid_argument] on a name registered with
    different kinds on the two sides. *)

val names : t -> string list
(** Registered metric names, sorted. *)

val find_counter : t -> string -> counter option
val find_gauge : t -> string -> gauge option
val find_histogram : t -> string -> histogram option

val to_json : t -> Sep_util.Json.t
(** Stable snapshot schema:
    [{"counters": {name: int, ...},
      "gauges": {name: float, ...},
      "histograms": {name: {"count": int, "sum": s, "min": m, "max": M,
                            "mean": mu, "p50": q, "p90": q, "p95": q,
                            "p99": q}}}]
    with names sorted within each section. *)

val pp : Format.formatter -> t -> unit
(** A human-readable table of the same snapshot. *)
