(** Byte-granularity file I/O over {!Fs}, plus the block-release walks
    used by truncate and unlink. All functions charge the CPU model's
    per-call and per-block costs, so benchmarks that loop on reads and
    writes see realistic 1993 software overheads. *)

val read : Fs.t -> Inode.t -> off:int -> len:int -> Bytes.t
(** Reads up to [len] bytes from [off] (short reads at EOF; holes read
    as zeros). Updates the inode-map access time. *)

val write : Fs.t -> Inode.t -> off:int -> Bytes.t -> unit
(** Writes (extending the file if needed) and triggers a log flush when
    a segment's worth of dirty blocks has accumulated. *)

val truncate : Fs.t -> Inode.t -> int -> unit
(** Shrinks or extends to the given byte size, releasing the space of
    dropped blocks. Extension creates a hole. *)

val free_blocks : Fs.t -> Inode.t -> unit
(** Releases every block (data and indirect) of the file: live-byte
    accounting, cache eviction, pointer reset. The inode itself remains
    allocated (unlink calls {!Fs.free_inode} afterwards). *)

val iter_assigned_blocks : Bmap.t -> Inode.t -> (Bkey.t -> int -> unit) -> unit
(** Visits every block that currently has a disk (or tertiary) address,
    including indirect blocks, children before their parents, reading
    the tree through the block map — the migrator's, fsck's and FFS's
    view. *)
