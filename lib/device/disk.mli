(** Magnetic-disk model with an explicit arm. Service time is

      per-op overhead + seek(distance) + rotational latency + transfer

    where the seek is the classic [min + (max-min) * sqrt(d/D)] curve and
    rotational latency is charged only when the arm moved (back-to-back
    sequential transfers stream at the sustained rate, as 1 MB raw
    transfers do in the paper's Table 5). Tracking the arm is what makes
    the paper's Table 6 "disk arm contention" phase emerge rather than
    being scripted. *)

type profile = {
  model : string;
  block_size : int;  (** bytes per addressable block *)
  nblocks : int;  (** default capacity in blocks *)
  read_rate : float;  (** sustained sequential read, bytes/s *)
  write_rate : float;  (** sustained sequential write, bytes/s *)
  seek_min : float;  (** track-to-track seek, s *)
  seek_max : float;  (** full-stroke seek, s *)
  rot_latency : float;  (** average rotational latency, s *)
  op_overhead : float;  (** controller + driver time per request, s *)
}

val rz57 : profile
(** DEC RZ57, calibrated to Table 5: ~1417 KB/s read, ~993 KB/s write. *)

val rz58 : profile
(** DEC RZ58: ~1491 KB/s read, ~1261 KB/s write. *)

val hp7958a : profile
(** HP 7958A on HP-IB — the paper's deliberately slow staging disk. *)

type t

val create : Sim.Engine.t -> ?bus:Scsi_bus.t -> ?nblocks:int -> profile -> name:string -> t
val name : t -> string
val profile : t -> profile
val nblocks : t -> int
val block_size : t -> int

val read : t -> blk:int -> count:int -> Bytes.t
(** Blocking (simulated-time) read of [count] blocks. *)

val read_into : t -> blk:int -> count:int -> dst:Bytes.t -> dst_off:int -> unit
(** {!read} landing directly in the caller's buffer at [dst_off]: same
    simulated timing, no intermediate allocation. *)

val write : t -> blk:int -> Bytes.t -> unit

val write_from : t -> blk:int -> src:Bytes.t -> src_off:int -> count:int -> unit
(** {!write} of the [count]-block view at [src_off] in [src] — lets a
    caller write one run of a larger image without slicing it out. *)

val share_from : t -> blk:int -> src:Blockstore.t -> src_blk:int -> count:int -> unit
(** {!write_from} of [count] blocks of another store, from [src_blk]:
    the same fault check, timing and counters, but the blocks are
    {!Blockstore.share}d rather than copied — a fetch landing the
    volume pages its image holds. *)

val share_into : t -> blk:int -> count:int -> dst:Blockstore.t -> dst_blk:int -> unit
(** {!read_into} whose destination is another store: the same fault
    check, timing and counters, but the blocks are {!Blockstore.share}d
    into [dst] from [dst_blk] rather than copied — a write-out lifting a
    staged segment into its image. *)

val store : t -> Blockstore.t
(** Direct access to the backing bytes, bypassing timing — used by
    debugging/introspection tools and crash images, never to read or
    write file-system data. *)

(** Cumulative instrumentation. *)

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int
val seek_time : t -> float
val busy_time : t -> float
