(** Core log-structured file system: the segmented log, the segment
    writer, block mapping through inodes and indirect blocks, space
    accounting, checkpoints and roll-forward recovery.

    Higher layers build on the exposed primitives: {!File} and {!Dir}
    provide the POSIX-ish operations, {!Cleaner} reclaims segments, and
    the HighLight library grafts on tertiary storage through the
    {!hooks} (accounting for blocks that live outside the disk's
    segments) and through a {!Dev.t} that routes tertiary addresses to
    its segment cache. *)

type t

exception No_space
(** Raised before any mutation when the log has too few clean segments
    to absorb the pending flush; run the cleaner and retry. *)

(** HighLight integration points. *)
type hooks = {
  is_foreign : int -> bool;
      (** True for addresses outside the disk's log segments (tertiary). *)
  account_foreign : addr:int -> int -> unit;
      (** Live-bytes delta for a foreign block (routed to the tsegfile). *)
  pre_checkpoint : t -> unit;
      (** Runs at the start of every checkpoint, while the log can still
          absorb writes (HighLight serializes the tsegfile here). *)
  reclaim : unit -> bool;
      (** Called when the log is out of clean segments before giving up:
          return true after freeing at least one (HighLight ejects a
          read-only cache line). *)
  segments_freed : unit -> unit;
      (** Fired whenever log segments return to the clean pool
          ({!release_segment}, a cleaner pass) — processes sleeping on a
          cache-line allocation use it instead of polling. *)
}

val no_hooks : hooks

(** {1 Lifecycle} *)

val mkfs :
  Sim.Engine.t -> Param.t -> Dev.t -> ?tertiary:Superblock.tertiary -> unit -> t
(** Formats the device and returns a mounted file system with an empty
    root directory. The initial state is checkpointed. *)

val mount :
  Sim.Engine.t -> ?cpu:Param.cpu -> ?bcache_blocks:int -> Dev.t -> t
(** Reads the superblock, loads the newest valid checkpoint and rolls
    the log forward to the last intact partial segment. *)

val set_hooks : t -> hooks -> unit

val checkpoint : t -> unit
(** Flushes everything and writes a checkpoint region; after this,
    mount needs no roll-forward. *)

val unmount : t -> unit
(** [checkpoint] + drops volatile state. The [t] must not be used
    afterwards. *)

(** {1 Geometry and state access} *)

val param : t -> Param.t
val engine : t -> Sim.Engine.t
val dev : t -> Dev.t
val tertiary_config : t -> Superblock.tertiary option
val imap : t -> Imap.t
val seguse : t -> Segusage.t
val bcache : t -> Bcache.t

val map : t -> Bmap.t
(** The block map over this file system's device, cache and sums. *)

val segbufs : t -> Util.Bufpool.t
(** The instance's pool of segment-sized ({!Param.seg_bytes}) buffers:
    partial images and — in HighLight — the migrator's staging images
    come from it. *)

val take_seg_image : t -> Device.Blockstore.t
(** A one-segment {!Device.Blockstore.image} from the instance's pool,
    for the segment walker ({!Cleaner.log_segment}) to share a log
    segment's disk pages into. *)

val give_seg_image : t -> Device.Blockstore.t -> unit
(** Erases the image and pools it again: it holds no page afterwards,
    so a later write into the segment it held takes no copy-on-write
    page. *)

val seg_images : t -> Device.Blockstore.t list
(** The pooled images (all of them, when no walk is open). *)

val cur_seg : t -> int
val cur_off : t -> int
val next_seg : t -> int
val now : t -> float

val tvol : t -> int
val tseg_in_vol : t -> int
val set_tertiary_cursor : t -> tvol:int -> tseg_in_vol:int -> unit
(** HighLight's tertiary allocation cursor, persisted in checkpoints. *)

(** {1 Inodes} *)

val get_inode : t -> int -> Inode.t
(** Loads through the inode map; raises [Not_found] for free inums. *)

val alloc_inode : t -> kind:Inode.kind -> Inode.t
val mark_inode_dirty : t -> Inode.t -> unit
val free_inode : t -> int -> unit
(** Releases the inum (blocks must already be freed — see
    {!File.free_blocks}). *)

val touch_atime : t -> int -> unit

(** {1 Block access} *)

val lookup_addr : t -> Inode.t -> Bkey.t -> int
(** Current address of a block, walking indirect blocks as needed;
    -1 for holes. *)

val get_block : t -> Inode.t -> Bkey.t -> Bytes.t option
(** Block content through the buffer cache; [None] for a hole. The
    bytes are the cache's buffer: use them before the next cache
    insertion or yield (see {!Bcache}). *)

val get_block_for_write : t -> Inode.t -> Bkey.t -> Bytes.t
(** Like {!get_block} but materializes holes and marks the block dirty.
    The caller mutates the returned bytes in place, at once. *)

val put_block : t -> Inode.t -> Bkey.t -> ?off:int -> Bytes.t -> unit
(** Replaces a block's content wholesale with the block-sized view of
    [data] at byte [off] (default 0), copied into a buffer of the cache's
    pool; the block becomes dirty. *)

val with_block : t -> int -> (Bytes.t -> 'a) -> 'a
(** [with_block t addr f] reads block [addr] into a private pooled
    buffer, applies [f] and gives the buffer back. [f] may yield but must
    not keep the bytes. *)

val drop_block : t -> Inode.t -> Bkey.t -> unit
val zap_pointer : t -> Inode.t -> Bkey.t -> unit
(** Frees one block: accounts its space away and clears its parent
    pointer (truncate path). *)

val repoint : t -> Inode.t -> Bkey.t -> int -> unit
(** Atomically moves a block's identity to a new address: updates the
    parent pointer, re-accounts live bytes, and refreshes the cache
    entry's address. Refuses dirty blocks. This is the kernel half of
    [lfs_migratev]. *)

val account : t -> addr:int -> int -> unit
(** Live-bytes delta for any address (disk segment or foreign). *)

(** {1 The log} *)

val flush : t -> unit
(** Writes all dirty blocks and inodes to the log in level order
    (data, then indirect blocks, then inodes). May raise {!No_space}. *)

val maybe_flush : t -> unit
(** Flushes when about a segment's worth of dirty data has gathered. *)

(** {2 The partial-segment writer}

    One writer builds every partial segment, the log's ({!flush}) and a
    HighLight staging line's, and writes it through {!dev}. *)

type partial

val open_staging : t -> base:int -> blk:int -> partial
(** A partial of its own, beside the log's, on the segment at device
    block [blk]; block [i] is addressed [base + 1 + i]. It is flagged
    tertiary, with the current serial, and written to the segment's end. *)

val stage_copy : t -> partial -> Bcache.key -> (Bytes.t -> int -> int) -> int
(** [stage_copy t p key fill]: [fill buf off] puts the block's bytes in
    the segment buffer and returns their CRC-32, or -1 to hash them.
    Returns the block's address, or -1 without calling [fill] when [p]
    is full, by blocks or by summary space. *)

val stage_inodes :
  t -> partial -> (Inode.t * bool) list -> (int * int list) list * (Inode.t * bool) list
(** Packs inodes, each with whether it is live, into inode blocks in [p].
    Returns the blocks staged, as address and live inums, and the inodes
    left over. The inode map still points at the inodes' old copies:
    {!place_inodes} moves them once the partial is written. *)

val place_inodes : t -> int -> int list -> unit
(** [place_inodes t addr inums] points the inode map at the inode block
    at [addr] for [inums], moving their live bytes there. *)

val close_partial : t -> partial -> unit
(** Writes the summary and the staged blocks through {!dev}. *)

val segments_needed : t -> int -> int
(** [segments_needed t extra] bounds the segments a {!flush} of the
    current dirty set plus [extra] more blocks may take: the dirty
    blocks, every indirect block above them, an inode block share for
    every file they or the dirty inodes belong to, and the summaries.
    {!flush} raises {!No_space} up front when fewer are free. *)

val alloc_clean_segment : t -> int option
(** Takes a clean segment out of the allocation pool, leaving it in
    [Cached] state, or [None] when at most two are clean or no clean
    one lies at or above the cache floor.
    Cache lines and staging lines alike dig that deep: a demand fetch
    is a liveness requirement and staging is how a full disk frees
    itself. *)

val release_segment : t -> int -> unit
(** Returns a segment to the clean pool and fires the [segments_freed]
    hook. *)

val note_segments_freed : t -> unit
(** Fires the [segments_freed] hook directly — used by the cleaner,
    which frees segments without going through {!release_segment}. *)

val grow : t -> added_segs:int -> ?new_dev:Dev.t -> unit -> unit
(** On-line storage addition (paper §6.4): appends [added_segs] fresh
    log segments (optionally switching to a larger device, e.g. a
    concatenation including the new disk), extends the ifile's segment
    usage table, rewrites the superblock, and checkpoints. In HighLight
    the new segments claim part of the address-space dead zone — use
    {!Highlight.Hl.grow_disk}, which also adjusts the address map. *)

val set_cache_floor : t -> int -> unit
(** Restricts {!alloc_clean_segment} to segments at or above the given
    index — e.g. to place HighLight's staging/cache lines on a separate
    spindle of a concatenated disk farm (the paper's Table 6 staging
    variants). *)

val set_cleaning : t -> bool -> unit
(** While true, flushes may consume the reserve (cleaner privilege). *)

val charge_cpu : t -> float -> unit
(** CPU-time charge from the {!Param.cpu} model. *)

(** {1 Introspection} *)

val nclean : t -> int
val segments_written : t -> int
val partials_written : t -> int
val iter_files : t -> (int -> Imap.entry -> unit) -> unit
(** All allocated inums including the reserved ones. *)

val crash_image : t -> Device.Blockstore.t -> Device.Blockstore.t
(** [crash_image t store] snapshots the blockstore backing [t] as a
    power-cut would leave it: a deep copy taken {e without} flushing
    dirty buffers or checkpointing, so the copy holds the last
    checkpoint plus whatever log tail had reached the device — possibly
    torn. Remount the copy (through {!mount}, or {!Highlight.Hl.mount}
    with the surviving jukeboxes) to exercise roll-forward; the running
    [t] is undisturbed. Raises [Invalid_argument] if [store]'s block
    size differs from the file system's. *)

val drop_caches : t -> unit
(** Flushes, then empties the buffer cache and the in-core inode table
    (the reserved ifile/tsegfile inodes stay pinned) — the state of a
    newly mounted file system, as the paper's access-delay experiment
    requires. Callers must re-resolve any [Inode.t] they hold. *)

val check : t -> string list
(** Cheap invariant audit (testing): returns human-readable violations,
    empty when consistent. *)
