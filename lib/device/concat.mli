(** Pseudo disk driver presenting several disks as one block address
    space — the paper's "striping driver to provide a single block
    address space for all the disks". Supports plain concatenation and
    round-robin striping. *)

type t

val concat : Disk.t list -> t
(** Devices appear one after another in address order. *)

val stripe : stripe_blocks:int -> Disk.t list -> t
(** Round-robin striping with the given unit. All disks must have equal
    block counts. *)

val nblocks : t -> int
val block_size : t -> int
val disks : t -> Disk.t list

val locate : t -> int -> Disk.t * int
(** Physical placement of a logical block (used by the address-map
    figure and by tests). *)

val read : t -> blk:int -> count:int -> Bytes.t
val write : t -> blk:int -> Bytes.t -> unit

val read_into : t -> blk:int -> count:int -> dst:Bytes.t -> dst_off:int -> unit
(** Zero-copy {!read}: each physically-contiguous run lands directly in
    the caller's view, whichever member disks it spans. *)

val write_from : t -> blk:int -> src:Bytes.t -> src_off:int -> count:int -> unit
(** Zero-copy {!write} of a view — no per-run slice allocation. *)

val share_from : t -> blk:int -> src:Blockstore.t -> src_blk:int -> count:int -> unit
(** {!Disk.share_from} of each physically-contiguous run on its member
    disk. *)

val share_into : t -> blk:int -> count:int -> dst:Blockstore.t -> dst_blk:int -> unit
(** {!Disk.share_into} of each physically-contiguous run from its
    member disk. *)
