(** CRC-32 (IEEE 802.3 polynomial), used for the partial-segment summary
    and data checksums (the paper's [ss_sumsum] and [ss_datasum]). *)

val bytes : ?off:int -> ?len:int -> Bytes.t -> int
(** Checksum of a byte range; the result is a 32-bit unsigned value. A
    range outside [b] raises [Invalid_argument]. *)

val string : string -> int

val combine : int -> Bytes.t -> int
(** Feeds more data into a running checksum, so multi-block data sums can
    be computed without concatenation. *)
