(** The block map: the walk from a file's inode down its indirect
    blocks to any block, over packed keys ({!Bcache.parent},
    {!Bcache.slot}), reading the blocks it passes through into the
    buffer cache. LFS and FFS share it: both keep the same inode and
    indirect-block tree, and differ only in where a block is written,
    which the walk never decides. *)

type t = {
  cache : Bcache.t;
  mutable dev : Dev.t;  (** LFS swaps it when the file system grows *)
  per_block : float;  (** CPU seconds charged per block read *)
  mutable sums : int array;
      (** by device address: the CRC-32 the LFS segment writer wrote
          each log block with since mount, -1 where unknown; empty in
          FFS, which keeps no sums *)
}

val written_crc : t -> int -> int
(** The sum block [addr] was written with, or -1 when unknown (before
    mount, not a log block, or not a disk address). Readers hand it to
    {!Bcache} so a block that is moved again carries the sum of its
    written bytes, and corruption on the disk shows up as a checksum
    mismatch instead of gaining a fresh, valid sum. *)

val get : t -> Inode.t -> Bcache.key -> Bytes.t
(** The cached bytes of block [key] of the file, read in (charging
    [per_block]) on a miss; {!Bcache.miss} for a hole. *)

val lookup : t -> Inode.t -> Bcache.key -> int
(** The address of block [key] of the file, or -1 for a hole. Reads
    the indirect blocks on the way in, as {!get}. *)
