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

val fold_partials :
  ?stop:int ->
  Fs.t ->
  int ->
  ('a -> off:int -> sum:Summary.t -> data_crc:int -> 'a) ->
  'a ->
  'a
(** Walks a segment's chain of partial summaries from offset 0, passing
    each partial's offset, summary and recorded data checksum. The walk
    ends at the first block that is not a valid summary, at a partial
    that would overrun the segment, or at offset [stop] (default: the
    segment's end; fsck passes the log head for the active segment). *)

val scan_segment : Fs.t -> int -> (int * int * Bkey.t) list
(** All (address, inum, bkey) block records found in a segment's
    summaries, live or dead (debug and fsck support; inode blocks are
    reported with inum -1 and a dummy key). *)

val is_live : Fs.t -> addr:int -> inum:int -> version:int -> Bkey.t -> bool
