(** CRC-32 (IEEE 802.3 polynomial), used for the partial-segment summary
    and data checksums (the paper's [ss_sumsum] and [ss_datasum]). *)

val bytes : ?off:int -> ?len:int -> Bytes.t -> int
(** Checksum of a byte range; the result is a 32-bit unsigned value. A
    range outside [b] raises [Invalid_argument]. *)

val string : string -> int

val kernel : string
(** The register update in use, picked once from the CPU at start-up:
    ["pclmul"] (carry-less multiply folding, x86-64) or ["table"]
    (portable slicing-by-8). Both give the same sums. *)

type shift
(** Tables that append a second part of one fixed length. *)

val shift : int -> shift
(** [shift n] prepares {!combine} for a second part of [n] bytes: four
    256-entry tables, built on first use and cached per length. *)

val combine : shift -> int -> int -> int
(** [combine (shift n) (bytes a) (bytes b)] is [bytes] of [a] followed
    by [b], for [b] of length [n], without touching their bytes. Folding
    per-block sums from [0] (the sum of nothing) gives the sum of the
    blocks' concatenation. *)

(**/**)

module Private : sig
  val table_bytes : ?off:int -> ?len:int -> Bytes.t -> int
  (** {!bytes} on the portable table kernel, whatever {!kernel} is; for
      tests that compare the two kernels. *)
end
