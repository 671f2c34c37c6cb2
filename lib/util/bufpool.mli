(** A free list of buffers of one fixed size. HighLight moves data in
    whole segments and whole blocks; the log writer, the migrator, the
    fetch and write-out paths and the buffer cache take a buffer here and
    give it back when its last user is done, instead of allocating a
    fresh one each time.

    A buffer travels as a handle: the bytes plus a flag saying whether
    the buffer sits on the free list, so {!give} rejects a double give in
    O(1) however long the list is.

    There is no capacity setting: the free list never holds more buffers
    than were out at once at the peak. A buffer that is never given back
    (a failure path may still have a device or a reader touching it) is
    simply left to the garbage collector. *)

type t

type buf
(** A buffer of some pool. *)

val none : buf
(** A placeholder handle no pool owns, with empty bytes, for a slot that
    holds no pooled buffer. {!give} rejects it. *)

val create : int -> t
(** [create size] is an empty pool of [size]-byte buffers. *)

val take : t -> buf
(** The most recently given buffer, or a fresh one when the list is
    empty. Its contents are unspecified: the taker overwrites (or zeroes)
    every byte it uses. *)

val bytes : buf -> Bytes.t
(** The buffer's bytes. They belong to whoever took the buffer, until it
    is given back. *)

val give : t -> buf -> unit
(** Returns a taken buffer. Raises [Invalid_argument] for a buffer of
    another size, one that is already free, or a give with no buffer
    out. *)

val is_free : buf -> bool
(** Whether the buffer is on its pool's free list. *)

val free_count : t -> int
