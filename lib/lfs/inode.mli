(** In-core and on-disk inodes. Inodes are 128 bytes on disk and are
    packed into whole inode blocks appended to the log; the inode map
    records which block currently holds each inode (location is
    variable — the defining difference from FFS reads). *)

type kind = Reg | Dir | Symlink

type t = {
  inum : int;
  mutable kind : kind;
  mutable nlink : int;
  mutable size : int;  (** bytes *)
  mutable atime : float;
  mutable mtime : float;
  mutable ctime : float;
  mutable version : int;
  direct : int array;  (** 12 direct block addresses *)
  mutable single : int;
  mutable double : int;
  mutable triple : int;
  mutable uid : int;
  mutable gid : int;
}

val unassigned : int
(** The out-of-band block address (-1) meaning "no block". *)

val create : inum:int -> kind:kind -> version:int -> now:float -> t

val isize : int
(** On-disk inode size in bytes. *)

val per_block : block_size:int -> int

val pointer : t -> int -> int
(** [pointer t i] reads inode pointer slot [i], numbered [0] to
    [Bkey.ndirect - 1] for the direct slots, then [Bkey.ndirect] for the
    single, [+ 1] for the double and [+ 2] for the triple indirect
    pointer ({!Bcache.slot} numbers them so). *)

val set_pointer : t -> int -> int -> unit

val write_to : Bytes.t -> off:int -> t -> unit
val read_from : Bytes.t -> off:int -> t option
(** [None] when the slot holds no inode. *)

val pack_block : block_size:int -> t list -> Bytes.t
(** Packs up to [per_block] inodes into a fresh inode block. *)

val find_in_block : Bytes.t -> inum:int -> t option
(** Scans an inode block for the given inode number. *)

val iter_block : Bytes.t -> (t -> unit) -> unit

val equal_shape : t -> t -> bool
(** Structural equality of all persistent fields (testing aid). *)
