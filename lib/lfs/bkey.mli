(** Identity of a block within a file: a data block, or one of the
    indirect (pointer) blocks of the block-map tree. The cleaner and the
    migrator record these identities in segment summaries so that any
    block found in a segment can later be checked for liveness and, if
    live, re-homed — including metadata blocks, which is one of
    HighLight's distinguishing features.

    Indirect blocks are numbered file-wide per level: [L1 p] covers data
    lbns [ndirect + p*ppb, ndirect + (p+1)*ppb); [L1 0] hangs off the
    inode's single-indirect pointer and the rest off the double/triple
    subtrees, mirroring the FFS indirection scheme the paper inherits. *)

type t =
  | Data of int  (** logical block number, >= 0 *)
  | L1 of int  (** single-level pointer block index *)
  | L2 of int  (** double-level pointer block index *)
  | L3  (** the triple-indirect root *)

val ndirect : int
(** Direct pointers in an inode (12, as in FFS). *)

(** Where the pointer to a given block lives. *)
type parent =
  | In_inode_direct of int  (** direct slot *)
  | In_inode_single
  | In_inode_double
  | In_inode_triple
  | In_block of t * int  (** (indirect block, slot within it) *)

val parent : ppb:int -> t -> parent
(** [ppb] is pointers-per-block ([block_size / 4]). The reference
    definition: the block map walks packed keys ({!Bcache.parent}), and
    the tests check that walk against this one. *)

val level : t -> int
(** 0 for data, 1-3 for indirect blocks; flushing proceeds level by
    level so children have addresses before parents are written. *)

val encode : t -> int
(** 32-bit encoding used in segment summaries (data lbns are
    non-negative; indirect blocks map to negative codes). *)

val decode : int -> t

val max_encodable_lbn : int
(** Largest data lbn {!encode} accepts (2{^28} - 1). *)

val max_data_lbn : ppb:int -> int
(** Largest addressable logical block for this geometry. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
