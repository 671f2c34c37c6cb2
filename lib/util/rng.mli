(** Deterministic pseudo-random numbers (splitmix64) so every experiment
    is reproducible, plus the skewed samplers the workloads need. *)

type t

val create : int -> t
(** [create seed] makes an independent stream. *)

val split : t -> t
(** Derives an independent child stream; the parent advances. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

val bits64 : t -> int64

type zipf
(** Zipf(s) sampler over \{1..n\}: rank-skewed popularity used to model
    the paper's assumption that "most archived data are never re-read". *)

val zipf : s:float -> n:int -> zipf
val zipf_draw : t -> zipf -> int
(** Draws a rank in [1, n]; rank 1 is the most popular. *)
