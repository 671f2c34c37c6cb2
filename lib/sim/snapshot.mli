(** Periodic metric snapshots: a sim-time sampler captures a {!Metrics}
    registry every N simulated seconds into a bounded ring of
    timestamped samples, exportable as wide CSV or JSON — the
    utilization-vs-time and queue-depth-vs-time view that end-of-run
    aggregates cannot give. *)

type value =
  | Counter of int
  | Gauge of { last : float; max : float }
  | Hist of { n : int; mean : float; p50 : float; p95 : float; p99 : float }

type sample = { ts : float; values : (string * value) list }

type t

val create : Engine.t -> metrics:Metrics.t -> ?period:float -> ?cap:int -> unit -> t
(** A sampler with no process attached: drive it with {!capture}
    (event-driven sampling). [period] (default 60 s of simulated time)
    only matters for {!start}/export metadata; the ring keeps the newest
    [cap] (default 2048) samples, evicting the oldest. *)

val start : Engine.t -> metrics:Metrics.t -> ?period:float -> ?cap:int -> unit -> t
(** [create] plus a spawned ["metrics-sampler"] process that captures
    every [period] simulated seconds until {!stop}. The sampler wakes at
    most once more after [stop] (bounded residual delay), then exits —
    it never leaves a blocked process behind. *)

val stop : t -> unit
(** Stops the sampler and takes one closing sample (instruments register
    lazily and the busiest phase of a run is often shorter than the last
    period — the final sample is the one that shows it); idempotent. *)

val capture : t -> unit
(** Takes one sample now (also what the sampler process calls). *)

val period : t -> float
val length : t -> int
val evicted : t -> int
(** Samples pushed out of the ring by the cap. *)

val samples : t -> sample list
(** Oldest first. *)

val to_csv : t -> string
(** Wide format: [ts] then one column per counter ([name]), gauge
    ([name], [name.max]) and histogram ([name.count], [name.p50],
    [name.p95], [name.p99]); the column set is the union over all
    samples (instruments register lazily), missing cells empty. *)

val to_json : t -> string
(** Schema ["highlight-snapshots/v1"]. *)
