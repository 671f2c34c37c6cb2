(** A free list of buffers of one fixed size. HighLight moves data in
    whole segments; the log writer, the migrator, the fetch path and the
    write-out path take a segment buffer here and give it back when its
    last user is done, instead of allocating a fresh one each time.

    There is no capacity setting: the free list never holds more buffers
    than were out at once at the peak. A buffer that is never given back
    (a failure path may still have a device or a reader touching it) is
    simply left to the garbage collector. *)

type t

val create : int -> t
(** [create size] is an empty pool of [size]-byte buffers. *)

val take : t -> Bytes.t
(** The most recently given buffer, or a fresh one when the list is
    empty. Its contents are unspecified: the taker overwrites (or zeroes)
    every byte it uses. *)

val give : t -> Bytes.t -> unit
(** Returns a taken buffer. Raises [Invalid_argument] for a buffer of
    another size, one that is already free, or a give with no buffer
    out. *)

val is_free : t -> Bytes.t -> bool
(** Whether this very buffer (physical equality) is on the free list. *)

val free_count : t -> int
