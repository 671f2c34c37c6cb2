(** Robotic tertiary-storage model: a set of reader/writer drives, a
    robot arm, and a shelf of media volumes (MO platters, tape
    cartridges, or WORM platters). Requests name a volume; the jukebox
    transparently finds a drive holding it or performs a robot swap,
    charging the (long) media-change latency. One drive can be reserved
    for the active writing volume, matching the paper's experimental
    setup of "one drive for the currently-active writing segment, the
    other for reading other platters". *)

type media_kind = Magneto_optic | Tape | Worm

type media_profile = {
  kind : media_kind;
  media_name : string;
  block_size : int;
  capacity_blocks : int;  (** per volume *)
  read_rate : float;  (** bytes/s *)
  write_rate : float;  (** bytes/s *)
  seek_const : float;  (** settle time for repositioning on a loaded volume *)
  seek_per_block : float;  (** additional spacing time per block of distance (tapes) *)
}

val hp6300_platter : media_profile
(** HP 6300 magneto-optic platter, calibrated to Table 5 (451/204 KB/s). *)

val metrum_tape : media_profile
(** Metrum VHS cartridge, 14.5 GB; used by the Sequoia-scale examples. *)

val sony_worm : media_profile
(** Sony write-once platter: overwriting a written block raises
    {!Worm_overwrite}. *)

type changer_profile = {
  swap_time : float;  (** eject + move + load + ready, s *)
  hogs_bus : bool;  (** paper artifact: robot holds the SCSI bus while moving *)
}

val hp6300_changer : changer_profile
(** 13.5 s volume change (Table 5), bus held during the swap. *)

val metrum_changer : changer_profile

exception Worm_overwrite of { vol : int; blk : int }

type t

val create :
  Sim.Engine.t ->
  ?bus:Scsi_bus.t ->
  ?vol_capacity:int ->
  drives:int ->
  nvolumes:int ->
  media:media_profile ->
  changer:changer_profile ->
  string ->
  t
(** [vol_capacity] overrides the per-volume block count (the paper
    constrained platters to 40 MB to force frequent volume changes). *)

val name : t -> string
val engine : t -> Sim.Engine.t
val media : t -> media_profile
val nvolumes : t -> int
val vol_capacity : t -> int
val ndrives : t -> int

val read : t -> vol:int -> blk:int -> count:int -> Bytes.t
val write : t -> vol:int -> blk:int -> Bytes.t -> unit

val read_into : t -> vol:int -> blk:int -> count:int -> dst:Bytes.t -> dst_off:int -> unit
(** {!read} landing directly in the caller's buffer at [dst_off]: same
    drive/robot/bus timing, no intermediate allocation. *)

val read_stream_into :
  t ->
  vol:int ->
  blk:int ->
  count:int ->
  ?chunk:int ->
  dst:Blockstore.t ->
  dst_blk:int ->
  (off:int -> blocks:int -> unit) ->
  unit
(** Like {!read_into} (same simulated timing), but the blocks go to
    another store: each [chunk]-block piece (default: the 64 KB
    transfer grain) is {!Blockstore.share}d into [dst] at its final
    position ([dst_blk + off]) the moment its bus transfer completes,
    and the callback then fires with only the piece's block offset
    within the request and its length — a fetch image takes the
    volume's pages rather than a copy of them. The fault plan is
    consulted per chunk, so a media error can fire mid-stream after a
    prefix has been delivered; the exception propagates and the
    delivered prefix stands. *)

val write_stream_from :
  t ->
  vol:int ->
  blk:int ->
  src:Blockstore.t ->
  src_blk:int ->
  count:int ->
  ?chunk:int ->
  ?await:(off:int -> blocks:int -> unit) ->
  (off:int -> blocks:int -> unit) ->
  unit
(** Streaming write, symmetric to {!read_stream_into}, of the [count]
    blocks of [src] from [src_blk]: each chunk {!Blockstore.share}s
    them onto the volume rather than copying them (a write-out of a
    staged segment's image). The volume
    mutates and the fault plan is consulted per [chunk]-block piece, so
    a drive or bus fault can fire at chunk k leaving exactly the prefix
    written — a chunk lands on the volume only after its transfer, so
    the written prefix is exactly what the final callback has reported.
    A retry of the remaining range writes no block twice, so it also
    works on WORM (overwrites are pre-checked and raise
    {!Worm_overwrite} before any I/O). [await ~off ~blocks] (if given)
    runs before each chunk and may block while holding the drive — the
    written-prefix watermark stall of a streaming write-out; the final
    callback fires after each chunk is on the media. Same simulated
    timing as {!write}. *)

val reserve_write_drive : t -> bool -> unit
(** When enabled, drive 0 is used only for volumes being written
    (requests pass [`Write]), keeping reads from evicting the active
    write volume. No-op for single-drive jukeboxes. *)

val loaded : t -> int option array
(** Volume currently in each drive. *)

val dismount : t -> unit
(** Parks every volume back in the rack, instantly and without counting
    a swap (the robot's return trips are off the data path): scenario
    support for forcing the next access to pay a full cold-volume swap.
    Fails if any drive has a request in flight. *)

val volume_store : t -> int -> Blockstore.t
(** Backing bytes of a volume, bypassing timing (debug/fsck only). *)

val erase_volume : t -> int -> unit
(** Media reclamation: wipes a volume (tertiary cleaner support).
    Raises for WORM media, which cannot be erased. *)

(** Instrumentation. *)

val swaps : t -> int
val swap_time_total : t -> float
val bytes_read : t -> int
val bytes_written : t -> int
