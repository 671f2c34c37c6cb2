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
  share_from : blk:int -> src:Device.Blockstore.t -> src_blk:int -> count:int -> unit;
      (** [write_from] of [count] blocks of another store, from
          [src_blk], shared copy-on-write instead of copied (a fetch
          landing its image); same timing. *)
  share_into : blk:int -> count:int -> dst:Device.Blockstore.t -> dst_blk:int -> unit;
      (** [read_into] whose destination is another store, from
          [dst_blk]: the blocks are shared copy-on-write instead of
          copied (a write-out lifting a staged segment into its image);
          same timing. *)
}

val of_disk : Device.Disk.t -> t
val of_concat : Device.Concat.t -> t

val of_store : Device.Blockstore.t -> t
(** Zero-latency device for logic-only unit tests. *)
