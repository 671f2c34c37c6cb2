(** Buffer cache over file blocks, keyed by (inum, {!Bkey.t}) — logical
    identity, not disk address, because in a log-structured file system
    a dirty block has no address until the segment writer assigns one.
    The pair is packed into one int ({!key}), and one hash table maps it
    to an entry threaded into one of two rings: clean blocks live in an
    LRU ring and may be evicted at any time; dirty blocks sit in a dirty
    ring, pinned until the log flushes them. Each entry remembers
    the disk address of its last written incarnation so the flusher can
    decrement the old segment's live bytes.

    An entry also carries the CRC-32 its bytes were last read or flushed
    with, so the log writer can fold it into a partial's data checksum
    instead of hashing the block again. The sum is valid only while the
    bytes are unchanged: new content ({!put_clean} and {!put_dirty}
    without [~crc]) and in-place modification ({!mark_modified}) forget
    it; the cleaner's move ({!mark_dirty}, or {!put_dirty} with the
    sum the block was written with) keeps it.

    The cache owns its block buffers, as the 4.4BSD buffer cache does: a
    block entering the cache through {!put_clean_buf} or {!put_dirty_buf}
    sits in a buffer taken from the cache's pool ({!take}), and the
    buffer goes back to the pool when the entry lets go of it — clean
    eviction, {!drop}, {!drop_inum}, {!invalidate_clean}, or new content
    replacing it. Bytes a caller hands in through {!put_clean} or
    {!put_dirty} are not pooled and are left to the GC. So the bytes
    {!find} returns are valid only until the next insertion into the
    cache or the next yield to another fiber: a caller reads or writes
    them at once and keeps no reference. *)

type key = private int
(** (inum, {!Bkey.t}) packed: the inum above the low 29 bits, the block
    below them. Within one Bkey level, keys sort in (inum, {!Bkey.compare})
    order. *)

val key : int -> Bkey.t -> key
(** [key inum bkey]. Raises [Invalid_argument] for a negative inum or a
    block {!Bkey.encode} rejects. *)

val inum : key -> int
val bkey : key -> Bkey.t

type t

val create : cap:int -> block_size:int -> t
val capacity : t -> int

val pool : t -> Util.Bufpool.t
(** The cache's pool of [block_size] buffers. *)

val take : t -> Util.Bufpool.buf
(** A buffer from the pool, for a block about to enter the cache or for
    a private single-block read. *)

val give : t -> Util.Bufpool.buf -> unit
(** Returns a taken buffer that did not enter the cache. *)

val find : t -> key -> Bytes.t option
(** Returns the cached block (dirty or clean), promoting clean hits. *)

val addr_of : t -> key -> int
(** Disk address of the entry's last written copy, or -1. Raises
    [Not_found] if the key is not cached. *)

val is_dirty : t -> key -> bool

val put_clean : t -> key -> addr:int -> ?crc:int -> Bytes.t -> unit
(** Inserts a block just read from [addr], with the sum it was written
    with when known ([crc], default -1: unknown). *)

val put_dirty : t -> key -> ?old_addr:int -> ?crc:int -> Bytes.t -> unit
(** Inserts new content. If the key was already cached its remembered
    address is kept; otherwise [old_addr] (default -1) records where the
    previous incarnation lives on disk. The entry's sum becomes [crc]
    (default -1: unknown). *)

val put_clean_buf : t -> key -> addr:int -> crc:int -> Util.Bufpool.buf -> unit
(** {!put_clean} of a buffer taken from the pool: the cache now owns it. *)

val put_dirty_buf : t -> key -> old_addr:int -> crc:int -> Util.Bufpool.buf -> unit
(** {!put_dirty} of a buffer taken from the pool: the cache now owns it. *)

val mark_dirty : t -> key -> unit
(** Promotes a clean entry to dirty with its bytes unchanged (the
    cleaner's move), keeping its sum. *)

val mark_modified : t -> key -> unit
(** Promotes an entry to dirty for in-place modification of its bytes:
    forgets its sum. *)

val crc : t -> key -> Bytes.t -> int
(** The sum carried by [key]'s entry when the entry still holds exactly
    [data] (physically); -1 when unknown or when the entry is gone or
    holds other bytes. *)

val set_crc : t -> key -> Bytes.t -> int -> unit
(** Records the sum of [data] on [key]'s entry if it still holds exactly
    [data]. *)

val mark_flushed : t -> key -> addr:int -> unit
(** Called by the segment writer once the block is on disk at [addr].
    The sum is kept: the writer records it with {!set_crc} before the
    write, and a change during the write has already forgotten it. *)

val set_addr : t -> key -> int -> unit
(** Rewrites a clean entry's remembered address (migration re-homes a
    block without changing its content). *)

val drop : t -> key -> unit

val drop_inum : t -> int -> unit
(** Discards every block of a file (unlink), walking only that file's
    entries. *)

val dirty_count : t -> int
val clean_count : t -> int

val iter_dirty : t -> (key -> Bytes.t -> int -> unit) -> unit
(** [iter_dirty t f] calls [f key data old_addr] on every dirty block,
    unordered; [f] must not change the cache. *)

val iter_dirty_sorted : t -> level:int -> (key -> Bytes.t -> int -> unit) -> unit
(** [iter_dirty_sorted t ~level f] calls [f key data old_addr] on every
    dirty block of {!Bkey.level} [level], in ascending key order. The
    blocks are gathered before the first call, so [f] may insert into
    the cache and flush the blocks it has already been given. *)

val invalidate_clean : t -> unit
(** Drops every clean block (used to model cache flushes between
    benchmark phases). *)

val buffers : t -> Util.Bufpool.buf list
(** The pooled buffers the live entries hold (for audits). *)

val hits : t -> int
val misses : t -> int
val note_miss : t -> unit
(** Callers count a miss when [find] returns [None] and they go to
    disk. [find] itself counts hits. *)
