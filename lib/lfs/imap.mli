(** The inode map: current disk address of each file's inode plus
    bookkeeping (version, access time). Held in the ifile (inum 1) in
    4.4BSD LFS; here kept in core as a table and serialized into ifile
    blocks at flush time.

    Access times live here rather than in the inode so that reads do not
    force inodes back into the log — and the migrator's space-time
    ranking (paper §5.1) reads them from the same place. *)

type entry = { mutable addr : int; mutable version : int; mutable atime : float }

type t

val create : max_inodes:int -> t
val max_inodes : t -> int

val first_regular_inum : int
(** Inums below this are reserved: 0 invalid, 1 ifile, 2 root directory,
    3 the tsegfile (HighLight only). *)

val get : t -> int -> entry
(** Entry for an inum; [addr = -1] means free. *)

val set_addr : t -> int -> int -> unit
(** Updates the inode location, dirtying the covering ifile block. *)

val set_atime : t -> int -> float -> unit

val alloc : t -> int
(** Takes the lowest free inum (>= [first_regular_inum]); bumps its
    version. Raises [Failure] when the map is full. *)

val alloc_specific : t -> int -> unit
(** Claims a reserved inum (mkfs). *)

val free : t -> int -> unit

val nfiles : t -> int

val iter_allocated : t -> (int -> entry -> unit) -> unit

(** Serialization to ifile blocks. *)

val entries_per_block : block_size:int -> int
val nblocks : max_inodes:int -> block_size:int -> int
val serialize_block : t -> block_size:int -> int -> Bytes.t
val load_block : t -> block_size:int -> int -> Bytes.t -> unit

val dirty_blocks : t -> block_size:int -> int list
(** Indexes of imap blocks touched since the last [clear_dirty]. *)

val mark_all_dirty : t -> unit
val clear_dirty : t -> unit
