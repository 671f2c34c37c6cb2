(** Metrics registry: counters, gauges and log-bucketed latency
    histograms for instrumenting simulated runs.

    Subsumes the bare {!Stats} accumulator: every histogram embeds a
    Welford accumulator for exact count/mean/stddev/min/max, and adds
    power-of-two buckets over it for p50/p95/p99. All instruments are
    find-or-create by name, so instrumentation points need only the
    registry and a stable name. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
val count : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val value : gauge -> float
val max_value : gauge -> float
(** High-water mark since creation/reset. *)

(** {1 Histograms}

    Bucket [i] covers [[base * 2^i, base * 2^(i+1))]; the default base
    of 1e-6 (one simulated microsecond) spans far past any simulated
    latency in 64 buckets. Observations below [base] land in an
    underflow bucket and are still exact in the Welford moments. *)

type histogram

val histogram : t -> ?base:float -> string -> histogram
val observe : histogram -> float -> unit
val observations : histogram -> int
val hist_mean : histogram -> float

val hist_sum : histogram -> float
(** Sum of all observations, accumulated in observation order: equal
    to a left fold [( +. )] over them, bit for bit — so a histogram can
    stand in for a hand-kept float accumulator. *)

val nbuckets : int

val bucket_count : histogram -> int -> int
(** Observations in bucket [i] ([-1] = underflow). With {!nbuckets} and
    {!bucket_lo} this exposes the raw distribution, letting a consumer
    snapshot cumulative bucket counts and difference them into sliding
    windows (the SLO engine's over-threshold counts). *)

val hist_stddev : histogram -> float
val hist_min : histogram -> float
val hist_max : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h q] with [q] in [[0,1]]: the geometric midpoint of the
    bucket holding the rank-[ceil (q*n)] observation, clamped to the
    observed min/max. Monotone in [q]; 0 when empty. Raises
    [Invalid_argument] outside [[0,1]]. *)

val bucket_index : histogram -> float -> int
(** Bucket an observation would land in ([-1] = underflow); exposed for
    boundary tests. *)

val bucket_lo : histogram -> int -> float
(** Lower bound of bucket [i]. *)

val merge_histogram : histogram -> histogram -> unit
(** [merge_histogram dst src] folds [src] into [dst] (buckets and
    moments); [src] is unchanged. The bases must match. *)

val find_histogram : t -> string -> histogram option

val iter_histograms : t -> (string -> histogram -> unit) -> unit
(** In name order. *)

val iter_counters : t -> (string -> counter -> unit) -> unit
val iter_gauges : t -> (string -> gauge -> unit) -> unit
(** In name order (snapshot/export support). *)

(** {1 Lifecycle and export} *)

val reset : t -> unit
(** Zeroes every instrument, keeping the registrations. *)

val to_json : t -> string
(** Instruments sorted by name; histograms report count, moments,
    p50/p95/p99, the bucket base and the non-empty per-bucket counts
    (index-ascending, ["-1"] = underflow) so an export can rebuild the
    full distribution. *)

val write_file : t -> string -> unit
