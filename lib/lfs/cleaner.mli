(** The cleaner: reclaims dirty segments by re-appending their live
    blocks to the log tail (paper §3). Liveness is decided exactly as
    [lfs_bmapv] does it — a block is live iff the file's current block
    map still points at this copy — so stale summaries and reused inums
    are harmless.

    Victims stay Dirty on disk until the post-collection checkpoint has
    persisted the moved blocks; only then are they marked Clean, which
    makes a crash at any point safe (worst case the cleaner re-scans an
    already-empty segment). *)

type policy =
  | Greedy  (** least live bytes first *)
  | Cost_benefit  (** Sprite's (1-u)·age/(1+u) ranking *)

val policy_name : policy -> string
(** The policy id used in decision records and write-amp SLIs. *)

type result = {
  segments_cleaned : int;
  blocks_moved : int;
  bytes_moved : int;
}

val select_victims : Fs.t -> policy:policy -> limit:int -> int list
(** Ranks Dirty segments (never the active, reserved or cached ones). *)

val clean_segments : Fs.t -> int list -> result
(** Cleans exactly these segments. *)

val clean_once : Fs.t -> ?policy:policy -> ?max_segments:int -> unit -> result
(** One pass: pick victims, move live data, checkpoint, mark clean. *)

val clean_until : Fs.t -> ?policy:policy -> target_clean:int -> unit -> result
(** Repeats passes until at least [target_clean] segments are clean or
    no progress is possible. *)

val spawn_daemon :
  Fs.t ->
  ?policy:policy ->
  ?period:float ->
  low_water:int ->
  high_water:int ->
  unit ->
  unit -> unit
(** Background cleaner process: wakes every [period] simulated seconds
    and cleans when clean segments drop below [low_water], stopping at
    [high_water]. Returns a function that shuts the daemon down (it
    exits at its next wake-up). *)

(** {1 The segment walker}

    One walk over a segment's partial summaries serves both cleaners,
    the tertiary rearranger and fsck; what differs is only where the
    segment's blocks are read from. *)

type source = {
  base : int;  (** address of the segment's first block *)
  stop : int;  (** offset no partial summary lies at or beyond *)
  read : 'b. int -> (Bytes.t -> 'b) -> 'b;
      (** [read addr f] reads the block at address [addr] and applies
          [f] to its bytes, which [f] must not keep *)
}

val log_segment : Fs.t -> int -> source
(** A log segment, read through {!Fs.with_block}; the active segment
    stops at the log head. *)

val fold_partials :
  Fs.t -> source -> ('a -> off:int -> sum:Summary.t -> data_crc:int -> 'a) -> 'a -> 'a
(** Walks a segment's chain of partial summaries from offset 0, passing
    each partial's offset, summary and recorded data checksum. The walk
    ends after a partial with no successor ([ss_next = -1], which every
    staging line's partial is), at the first block that is not a valid
    summary, at a partial that would overrun the segment, or at the
    source's [stop]. *)

type 'a visit = {
  file_block : 'a -> addr:int -> inum:int -> version:int -> Bkey.t -> 'a;
      (** a file block a summary names, live or dead, with the file
          version the summary recorded *)
  inode_block : 'a -> addr:int -> 'a;  (** an inode block, before its live inodes *)
  live_inode : 'a -> addr:int -> inum:int -> 'a;
      (** an inode the inode map places in the inode block at [addr] *)
}

val fold_segment : Fs.t -> source -> 'a visit -> 'a -> 'a
(** The segment's contents, partial by partial and in address order
    within one: its file blocks, then each inode block and the inodes
    that still live there, read through the source. An inode is live
    in a block iff the inode map points at that block with the inode's
    version; a file block's liveness is {!is_live}. *)

val is_live : Fs.t -> addr:int -> inum:int -> version:int -> Bkey.t -> bool
(** A file block at [addr] is live iff its file still has [version] and
    maps the block to [addr]. *)
