(** Sparse backing store for simulated media. Devices carry real bytes so
    file-system correctness is checked end to end, but memory is
    allocated only for the pages touched: blocks are grouped in pages of
    32 consecutive blocks, taken on the first write to any of them (a
    9 TB jukebox costs nothing until used). Unwritten blocks read back
    as zeros, like a freshly formatted medium.

    Pages are shared copy-on-write: {!copy} and {!share} hand the same
    pages to another store (or another range of this one), and whichever
    holder writes a shared page first takes a private page for it.
    Each store keeps its own record of which blocks it has written, so
    sharing a page never exposes the other holder's blocks.

    A whole page of written zeros holds the one zero page, which every
    store shares and none owns: a staging segment's zero tail costs no
    memory on the cache disk or on the volume it is written out to. *)

type t

val create : block_size:int -> nblocks:int -> t

val image : block_size:int -> nblocks:int -> t
(** A store that borrows pages for a while — a segment image that a
    fetch or a write-out shares through — and never hoards one: a page
    whose last holder it was goes to the GC, not to its free list, so
    {!erase} leaves it holding nothing. *)

val block_size : t -> int
val nblocks : t -> int

val read_into : t -> blk:int -> count:int -> dst:Bytes.t -> dst_off:int -> unit
(** Lands [count] blocks directly at [dst_off] in the caller's buffer.
    The view must lie inside [dst]; out-of-range access raises
    [Invalid_argument]. *)

val write : t -> blk:int -> Bytes.t -> unit
(** The byte length must be a positive multiple of the block size. *)

val write_from : t -> blk:int -> src:Bytes.t -> src_off:int -> count:int -> unit
(** Writes [count] blocks from the view at [src_off] in [src] without an
    intermediate slice allocation — the primitive under {!write}. A part
    of the range that covers a whole page and is all zeros takes the
    zero page instead of a private page (and lets go of the page it
    held); the check reads up to the first nonzero word and runs on
    whole pages only. *)

val share : src:t -> src_blk:int -> dst:t -> dst_blk:int -> count:int -> unit
(** Makes blocks [dst_blk, dst_blk + count) of [dst] equal to blocks
    [src_blk, src_blk + count) of [src], all marked written — the effect
    of a {!write_from} of what {!read_into} would return — without
    copying where it can: every part of the range that lines up with a
    source page whose blocks there are all written, and whose
    destination page holds no other written block, takes that page.
    Anything else is copied (an unwritten source block lands as written
    zeros). Both stores must have one block size; ranges in one store
    must not overlap. *)

val copy : t -> t
(** Snapshot of the store's current contents — the raw platter state at
    this instant. Every page is shared, so the copy costs the directory
    only; later writes to either side copy at most one page each. The
    crash-recovery harness captures one mid-run ({!Lfs.Fs.crash_image})
    and remounts it to exercise roll-forward from a torn log. *)

val is_written : t -> int -> bool
(** Whether the block has ever been written (distinguishes an explicit
    zero write from untouched medium; WORM enforcement sits on this). *)

val written_blocks : t -> int

val erase : t -> unit
(** Forgets every block and lets go of every page. The directory stays
    allocated, so a store erased and filled again (a recycled segment
    image, a reclaimed volume) allocates none. *)

val erase_block : t -> int -> unit
(** Forgets one block (used when a tertiary volume is reclaimed); its
    page is released when no written block is left in it. *)

val pages_taken : t -> int
(** Private pages this store has taken since it was created (by
    {!create}, {!image} or {!copy}): one per first write into an
    untouched page and one per write into a page another holder
    shares, the zero page included. A whole page of zeros takes
    none. *)

val blocks_copied : t -> int
(** Blocks this store has taken by copying since it was created (by
    {!create}, {!image} or {!copy}): every block of a {!write_from}
    (and {!write}), every block {!share} could not take as a page, and
    every block carried over when a write took a private page in place
    of a shared one (from the zero page too, though its blocks are
    filled, not read). A move that shares whole pages adds nothing; a
    whole page of zeros written counts like any other. *)
