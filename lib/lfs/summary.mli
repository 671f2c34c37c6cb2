(** Partial-segment summary block (paper Table 1). Every partial segment
    begins with one: checksums over the summary and the data give
    atomicity for roll-forward; FINFO records name every file block in
    the partial (by inode number, version and {!Bkey.t}); the inode-block
    addresses locate inode blocks. The block layout of a partial is:
    summary, then the described data blocks in FINFO order, then the
    inode blocks. *)

type finfo = {
  fi_ino : int;
  fi_version : int;
  fi_lastlength : int;  (** valid bytes in the file's final block *)
  fi_blocks : Bkey.t list;
}

type t = {
  ss_next : int;  (** address of the next segment in the threaded log *)
  ss_create : float;  (** creation timestamp *)
  ss_serial : int64;  (** monotone partial-segment number, for roll-forward *)
  ss_flags : int;
  finfos : finfo list;
  inode_addrs : int list;  (** disk addresses of inode blocks in this partial *)
}

val header_bytes : int
val finfo_bytes : finfo -> int

val bytes_needed : t -> int
(** Space the serialized summary needs; must fit one block. *)

val ndata_blocks : t -> int
(** Data blocks described by the FINFOs (excludes inode blocks). *)

val nblocks_total : t -> int
(** All blocks of the partial except the summary itself. *)

val serialize : block_size:int -> data_crc:int -> t -> Bytes.t
(** Fails if the summary does not fit. The summary checksum is computed
    over the whole block with the checksum field zeroed. *)

val serialize_into :
  block_size:int -> data_crc:int -> t -> dst:Bytes.t -> dst_off:int -> unit
(** {!serialize} written straight into the block at [dst_off] in [dst],
    so a partial-segment image can be assembled in one buffer. The whole
    block is overwritten. *)

type error = Bad_checksum | Garbage

val deserialize : Bytes.t -> (t * int, error) result
(** Returns the summary and the recorded data checksum. [Garbage] means
    the block cannot be a summary at all (e.g. erased segment). *)

val pp : Format.formatter -> t -> unit
