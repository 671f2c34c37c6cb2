(** Little-endian fixed-width accessors and block helpers shared by the
    on-media data structures. All offsets are byte offsets. *)

val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit

val get_u32 : Bytes.t -> int -> int
(** Reads an unsigned 32-bit value; result fits an OCaml [int] (63-bit). *)

val set_u32 : Bytes.t -> int -> int -> unit
(** Writes the low 32 bits of the argument. *)

val get_i32 : Bytes.t -> int -> int
(** Reads a signed 32-bit value (block addresses use -1 as "unassigned"). *)

val set_i32 : Bytes.t -> int -> int -> unit

val get_u64 : Bytes.t -> int -> int64
val set_u64 : Bytes.t -> int -> int64 -> unit

val get_string : Bytes.t -> pos:int -> len:int -> string
(** Reads [len] bytes and truncates at the first NUL, for fixed-width
    name fields. *)

val set_string : Bytes.t -> pos:int -> len:int -> string -> unit
(** Writes the string NUL-padded to [len] bytes. Fails if it is longer. *)

val is_zero : Bytes.t -> bool

val is_zero_sub : Bytes.t -> int -> int -> bool
(** [is_zero_sub b off len]: whether the [len] bytes from [off] are all
    zero. Reads a word at a time and stops at the first nonzero one. *)
