(** Sparse backing store for simulated media. Devices carry real bytes so
    file-system correctness is checked end to end, but memory is
    allocated only for the pages touched: blocks are grouped in pages of
    32 consecutive blocks, and a page is allocated on the first write to
    any of its blocks and freed once its last written block is erased (a
    9 TB jukebox costs nothing until used). Overwrites land in place.
    Unwritten blocks read back as zeros, like a freshly formatted
    medium. *)

type t

val create : block_size:int -> nblocks:int -> t
val block_size : t -> int
val nblocks : t -> int

val read : t -> blk:int -> count:int -> Bytes.t
(** Returns [count * block_size] bytes. Out-of-range access raises
    [Invalid_argument]. *)

val read_into : t -> blk:int -> count:int -> dst:Bytes.t -> dst_off:int -> unit
(** Lands [count] blocks directly at [dst_off] in the caller's buffer —
    the zero-copy primitive under {!read}. The view must lie inside
    [dst]. *)

val write : t -> blk:int -> Bytes.t -> unit
(** The byte length must be a positive multiple of the block size. *)

val write_from : t -> blk:int -> src:Bytes.t -> src_off:int -> count:int -> unit
(** Writes [count] blocks from the view at [src_off] in [src] without an
    intermediate slice allocation — the primitive under {!write}. *)

val copy : t -> t
(** Deep snapshot of the store's current contents — the raw platter
    state at this instant. The crash-recovery harness captures one
    mid-run ({!Lfs.Fs.crash_image}) and remounts it to exercise
    roll-forward from a torn log. *)

val is_written : t -> int -> bool
(** Whether the block has ever been written (distinguishes an explicit
    zero write from untouched medium; WORM enforcement sits on this). *)

val written_blocks : t -> int
val erase : t -> unit

val erase_block : t -> int -> unit
(** Forgets one block (used when a tertiary volume is reclaimed); its
    page is released when no written block is left in it. *)
