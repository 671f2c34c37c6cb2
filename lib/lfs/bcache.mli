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
    bytes are unchanged: new content ({!put_clean_buf} and
    {!put_dirty_buf} with [~crc:-1]) and in-place modification
    ({!mark_modified}) forget it; the cleaner's move ({!mark_dirty}, or
    {!put_dirty_buf} with the sum the block was written with) keeps it.

    The cache owns its block buffers, as the 4.4BSD buffer cache does:
    every block enters the cache in a buffer taken from the cache's pool
    ({!take}) and handed over through {!put_clean_buf} or
    {!put_dirty_buf}, and the buffer goes back to the pool when the
    entry lets go of it — clean eviction, {!drop}, {!drop_inum},
    {!invalidate_clean}, or new content replacing it. So the bytes
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

val level : key -> int
(** {!Bkey.level} of the key's block, without decoding it. *)

(** {2 Block mapping on packed keys}

    {!Bkey.parent} without allocating: the segment writer and the block
    map walk every dirty block's ancestors with these. *)

val none : key
(** Not a key: what {!parent} returns for a pointer kept in the inode. *)

val parent : ppb:int -> key -> key
(** [parent ~ppb k] is the key of the indirect block holding [k]'s
    pointer, in [k]'s file, or {!none} when the inode holds it. *)

val slot : ppb:int -> key -> int
(** The index of [k]'s pointer in its {!parent} block, or, when the
    inode holds it, its inode slot as {!Inode.pointer} numbers them. *)

module Tbl : Hashtbl.S with type key = int
(** Int-keyed tables with the cache's own hash, which spreads packed
    keys over the buckets. *)

type t

val create : cap:int -> block_size:int -> t

val pool : t -> Util.Bufpool.t
(** The cache's pool of [block_size] buffers. *)

val take : t -> Util.Bufpool.buf
(** A buffer from the pool, for a block about to enter the cache or for
    a private single-block read. *)

val give : t -> Util.Bufpool.buf -> unit
(** Returns a taken buffer that did not enter the cache. *)

val miss : Bytes.t
(** What {!find} returns for a key that is not cached: one shared empty
    buffer, told apart by physical equality ([==]). *)

val find : t -> key -> Bytes.t
(** Returns the cached block (dirty or clean), promoting clean hits, or
    {!miss} — a lookup allocates nothing, hit or miss. *)

val addr_of : t -> key -> int
(** Disk address of the entry's last written copy, or -1. Raises
    [Not_found] if the key is not cached. *)

val is_dirty : t -> key -> bool

val put_clean_buf : t -> key -> addr:int -> crc:int -> Util.Bufpool.buf -> unit
(** Inserts a block just read from [addr] into a buffer taken from the
    pool, which the cache now owns, with the sum it was written with
    when known ([crc], or -1: unknown). Raises [Invalid_argument] if the
    key is cached dirty. *)

val put_dirty_buf : t -> key -> old_addr:int -> crc:int -> Util.Bufpool.buf -> unit
(** Inserts new content in a buffer taken from the pool, which the cache
    now owns. If the key was already cached its remembered address is
    kept; otherwise [old_addr] (-1: none) records where the previous
    incarnation lives on disk. The entry's sum becomes [crc] (-1:
    unknown). *)

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

val mark_flushed : t -> key -> addr:int -> unit
(** Called by a file system's writer once the block is on disk at
    [addr]: the entry becomes clean, its sum kept. Raises
    [Invalid_argument] if the key is not cached dirty. *)

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

(** {2 Handles}

    A handle is a cache entry as the segment writer carries it from
    staging to the end of the partial's write, so it looks nothing up
    again by key. A handle answers only while its entry is still in the
    cache holding the same bytes (physically): the writer yields while
    its partial is on the way to the disk, and a concurrent write or
    unlink may give the entry new bytes or drop it meanwhile. *)

type handle

val no_handle : handle
(** A handle of no entry: answers nothing. *)

val iter_dirty_sorted : t -> level:int -> (handle -> key -> Bytes.t -> int -> unit) -> unit
(** [iter_dirty_sorted t ~level f] calls [f h key data old_addr] on
    every dirty block of {!Bkey.level} [level], in ascending key order,
    [h] being its entry. The blocks are gathered before the first call,
    so [f] may insert into the cache and flush the blocks it has
    already been given. *)

val handle_crc : handle -> Bytes.t -> int
(** {!crc} through a handle: the entry's sum if it still holds [data],
    else -1. *)

val set_handle_crc : handle -> Bytes.t -> int -> unit
(** Records the sum of [data] on the handle's entry if it still holds
    [data]. *)

val mark_written : t -> handle -> Bytes.t -> crc:int -> addr:int -> unit
(** The segment writer's {!mark_flushed}: [data], summed [crc], is on
    disk at [addr]. An entry still in the cache remembers [addr]; it
    becomes clean only if it still holds [data] with the sum [crc]
    unchanged, since bytes replaced or modified during the write are not
    the ones on disk. A dropped entry is left alone. *)

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
