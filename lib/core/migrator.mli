(** The migrator: HighLight's second cleaner (paper §6.7). It selects
    disk-resident blocks, gathers them into staging segments addressed
    with the block numbers they will use on the tertiary volume
    (the [lfs_migratev] mechanism), writes each staging segment into an
    on-disk cache line, re-aims the file metadata at the tertiary
    addresses, and queues the segment for copy-out through the service
    process.

    Whole files migrate with their indirect blocks, directory data
    migrates like file data, and optionally the inodes themselves are
    packed into inode blocks inside the staging segment — the full
    "all file system data can migrate" property the paper claims. *)

val migrate_blocks :
  State.t ->
  ?wait:bool ->
  ?checkpoint:bool ->
  ?allow_tertiary:bool ->
  (int * Lfs.Bkey.t) list ->
  int list
(** Mechanism entry point: stages the given disk-resident blocks into
    tertiary segments (skipping holes, dirty blocks and blocks already
    on tertiary storage) and requests copy-out. [wait] (default true)
    blocks until the copies reach the jukebox; [checkpoint] (default
    true) checkpoints afterwards so the tertiary cursor and re-aimed
    pointers are crash-safe. Returns the tertiary segment indices
    written. *)

val migrate_files :
  State.t ->
  ?wait:bool ->
  ?checkpoint:bool ->
  ?with_inodes:bool ->
  ?self_contained:bool ->
  int list ->
  int list
(** Whole-file migration of the given inums: all data and indirect
    blocks, plus the inodes themselves when [with_inodes] (default
    true). The file system is flushed first so the files are stable. *)

val migrate_paths :
  State.t ->
  ?wait:bool ->
  ?checkpoint:bool ->
  ?with_inodes:bool ->
  ?self_contained:bool ->
  string list ->
  int list
(** [self_contained] (default false) applies paper §8.2's reliability
    recommendation: the whole batch — data, indirect blocks, inodes —
    is placed on a single tertiary volume when one has room, so a media
    failure cannot leave cross-volume metadata pointers dangling. *)

val stage_only : State.t -> (int * Lfs.Bkey.t) list -> int list
(** Stages blocks into tertiary-addressed cache lines *without*
    requesting copy-out — the delayed-write policy of paper section 5.4 (write
    the segments "in a later idle period when there will be no
    contention for the disk arm"). Pair with {!flush_staged}. The
    staged lines pin cache capacity until flushed. *)

val stage_files_only : State.t -> int list -> int list

val flush_staged : State.t -> ?wait:bool -> unit -> int
(** Requests copy-out for every Staging cache line; returns how many
    were queued. *)
