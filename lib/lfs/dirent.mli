(** Directory block format: fixed 64-byte slots (4-byte inum, 2-byte
    name length, up to 58 bytes of name; inum 0 marks a free slot).
    Directories are ordinary files of these blocks, which is what lets
    HighLight migrate directory data to tertiary storage like any other
    file data. *)

val entry_bytes : int
val max_name : int
val per_block : block_size:int -> int

val find : Bytes.t -> string -> int option
(** Looks a name up in one directory block. *)

val add : Bytes.t -> string -> int -> bool
(** Adds an entry in the first free slot; [false] if the block is full.
    Raises [Invalid_argument] on over-long or empty names. *)

val remove : Bytes.t -> string -> bool
(** [false] if the name is not present. *)

val iter : Bytes.t -> (string -> int -> unit) -> unit
val count : Bytes.t -> int
