(** Footprint — Sequoia's abstract robotic-storage interface, as used by
    HighLight (paper §2, §6.5). It hides device specifics behind
    volume/segment addressing and reports "end of medium" rather than
    failing when a volume's real capacity falls short of its advertised
    (e.g. compressed) capacity; HighLight reacts by marking the volume
    full and re-writing the segment on the next one.

    Several jukeboxes can sit behind one Footprint instance; volumes are
    numbered across all of them ("an array of devices each holding an
    array of media volumes"). An optional per-operation RPC latency
    models running the jukebox on a remote machine, which the paper
    anticipates for the Sequoia environment. *)

open Device

type t

type write_result = Written | End_of_medium

val create : ?rpc_latency:float -> seg_blocks:int -> segs_per_volume:int -> Jukebox.t list -> t
(** [segs_per_volume] is the *advertised* capacity used for address-space
    layout; if it exceeds what a volume really holds, writes of the
    excess segments return [End_of_medium]. *)

val seg_blocks : t -> int
val block_size : t -> int
val nvolumes : t -> int

val ndrives : t -> int
(** Total drives across all member jukeboxes — the natural parallelism
    of the tertiary side, and the I/O worker-pool width. *)

val segs_per_volume : t -> int

val volume_full : t -> int -> bool
(** True once a write to the volume has hit end-of-medium. *)

val volume_loaded : t -> int -> bool
(** Whether the volume currently sits in some drive — "closest copy"
    selection for segment replicas (paper §5.4). *)

val read_seg_stream_into :
  t ->
  vol:int ->
  seg:int ->
  ?chunk:int ->
  ?off:int ->
  dst:Blockstore.t ->
  (off:int -> blocks:int -> unit) ->
  unit
(** Reads a whole segment: its blocks are shared into [dst] (a segment
    image: block [i] of the segment is block [i] of [dst]) in
    [chunk]-block pieces as each crosses the drive's bus, with the
    timing of one {!read_blocks} of the segment; the callback fires per piece with only its position
    and length in blocks, and a mid-transfer media fault propagates
    after the already-delivered prefix. With [off] > 0 only the
    segment's suffix from that block is read — the tail re-fetch of a
    partial cache line — but chunks still land at their segment
    offsets and callback positions stay segment-absolute. *)

val read_blocks : t -> vol:int -> seg:int -> off:int -> count:int -> Bytes.t
(** Partial read within a segment (used by fsck-style tools; HighLight
    proper always moves whole segments). *)

val write_seg_stream_from :
  t ->
  vol:int ->
  seg:int ->
  ?chunk:int ->
  ?off:int ->
  src:Blockstore.t ->
  src_blk:int ->
  ?await:(off:int -> blocks:int -> unit) ->
  (off:int -> blocks:int -> unit) ->
  write_result
(** Writes a whole segment, held by [src] from [src_blk] (a segment
    image), whose pages each chunk shares onto the volume: per-chunk
    fault checks (a media error at chunk k leaves the prefix written).
    [End_of_medium], detected up front before any motion, marks the
    volume full and writes nothing. With [off] > 0 only the segment's suffix from that block is
    written — the resume of a torn write, which never rewrites a block
    and so is safe on WORM media. [await ~off ~blocks] (if given) runs
    before each chunk and may block until the producer has made the
    piece available — the read watermark of the write-out pipeline;
    the final callback fires as each chunk lands. Both callbacks get
    segment-absolute positions. *)

val erase_volume : t -> int -> unit
(** Support for the tertiary cleaner: reclaims a whole volume. *)

val describe : t -> string list
(** One human-readable line per jukebox (media type, drives, volumes,
    capacity) — used to render the paper's Fig. 2. *)

(** Instrumentation for the migration-breakdown experiment (Table 4). *)

val time_in_footprint : t -> float
val bytes_written : t -> int
val bytes_read : t -> int
val swaps : t -> int
val reset_stats : t -> unit
