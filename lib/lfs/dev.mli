(** The device interface the file system writes through. LFS sees one
    flat block address space; plugging in a plain disk, a concatenated
    disk farm, or HighLight's block-map driver (which routes tertiary
    addresses through the segment cache) requires no file-system
    changes — the layering of the paper's Figure 5. *)

type t = {
  nblocks : int;
  block_size : int;
  read : blk:int -> count:int -> Bytes.t;
  write : blk:int -> data:Bytes.t -> unit;
  read_into : blk:int -> count:int -> dst:Bytes.t -> dst_off:int -> unit;
      (** [read] landing directly in a caller buffer — the zero-copy
          path segment staging uses. *)
  write_from : blk:int -> src:Bytes.t -> src_off:int -> count:int -> unit;
      (** [write] of a [count]-block view at byte offset [src_off] in
          [src], with no slice allocation. *)
  pages : Device.Blockstore.pages;
      (** The stores and blocks behind a range, untimed: where a move
          of blocks this device already holds (a write-out of a staged
          segment) shares them from. *)
  share_from : blk:int -> src:Device.Blockstore.t -> src_blk:int -> count:int -> unit;
      (** [write_from] of [count] blocks of another store, from
          [src_blk], shared copy-on-write instead of copied (a fetch
          landing the blocks of a tertiary volume); same timing. *)
}

val of_disk : Device.Disk.t -> t
val of_concat : Device.Concat.t -> t

val of_store : Device.Blockstore.t -> t
(** Zero-latency device for logic-only unit tests. *)
