(** Baseline Fast File System with read/write clustering — the
    comparison point of the paper's Tables 2 and 3 ("FFS with read- and
    write-clustering, which coalesces adjacent block I/O operations").

    Update-in-place with cylinder-group allocation: an inode's data
    blocks are placed in its group, contiguously when possible, and the
    driver coalesces adjacent blocks into transfers of up to [maxcontig]
    blocks (16 → 64 KB, as the paper configures). Reads detect
    sequential streams and fetch whole clusters ahead.

    The two systems differ exactly where the paper says they differ:
    block placement and the write path. Shared with LFS: the on-media
    formats (inodes, directory blocks, block-map keys), the buffer
    cache, the block map ({!Lfs.Bmap}), the walk over a file's blocks
    ({!Lfs.File.iter_assigned_blocks}) and the namespace
    ({!Lfs.Dir.Make}). FFS's own: cylinder-group allocation (an inode
    and its blocks in one group, directories spread across groups), the
    in-place clustered write-back, the clustered sequential read and
    the inode table with its bitmaps. *)

type params = {
  block_size : int;
  ngroups : int;
  blocks_per_group : int;
  inodes_per_group : int;
  maxcontig : int;  (** blocks coalesced per transfer *)
  bcache_blocks : int;
  cpu : Lfs.Param.cpu;
}

val default_params : ngroups:int -> blocks_per_group:int -> params

type t

val mkfs : Sim.Engine.t -> params -> Lfs.Dev.t -> t
val mount : Sim.Engine.t -> ?cpu:Lfs.Param.cpu -> ?bcache_blocks:int -> Lfs.Dev.t -> t
val sync : t -> unit
val unmount : t -> unit

val params : t -> params
val engine : t -> Sim.Engine.t
val free_blocks : t -> int
val bcache : t -> Lfs.Bcache.t

exception No_space

(** {1 Namespace}

    LFS's, instantiated over this file system ({!Lfs.Dir.Make}); it
    raises {!Lfs.Dir.Exists}, {!Lfs.Dir.Not_dir} and
    {!Lfs.Dir.Not_empty}. *)

include Lfs.Dir.S with type fs := t

(** {1 File I/O} *)

val read : t -> Lfs.Inode.t -> off:int -> len:int -> Bytes.t
val write : t -> Lfs.Inode.t -> off:int -> Bytes.t -> unit

val drop_caches : t -> unit
(** Sync, then empty the buffer cache and in-core inode table — the
    state of a newly mounted file system. *)

val check : t -> string list
(** Invariant audit: every block reachable from the root, data and
    indirect, is marked used in the bitmaps, and the bitmaps mark no
    more than those plus the groups' metadata. *)
