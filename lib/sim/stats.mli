(** Streaming statistics for instrumenting simulated runs: counts, sums
    and Welford mean/variance, enough for the paper's throughput and
    phase-breakdown tables. *)

type t

val create : string -> t

val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
val stddev : t -> float
val min_value : t -> float
val max_value : t -> float
val reset : t -> unit

val absorb : t -> t -> unit
(** [absorb t o] folds [o]'s observations into [t] (pairwise Welford
    combination); [o] is left unchanged. *)
