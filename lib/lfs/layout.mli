(** Disk layout arithmetic. Physical block 0 holds the superblock and
    blocks 1-2 the two alternating checkpoint regions; that reserved
    area occupies segment slot 0, so log segment [s] starts at physical
    block [(s+1) * seg_blocks]. Addresses are plain block numbers — the
    same numbers HighLight later extends with a tertiary range at the
    top of the address space. *)

val superblock_addr : int
val checkpoint_addr : int -> int
(** Address of checkpoint slot 0 or 1. *)

val seg_base : Param.t -> int -> int
(** Physical block where log segment [s] starts. *)

val seg_of_addr : Param.t -> int -> int option
(** Log segment containing a disk address; [None] for the reserved area
    or addresses beyond the disk. *)

val seg_index : Param.t -> int -> int
(** {!seg_of_addr} without the option, for per-block accounting: [-1]
    for the reserved area or addresses beyond the disk. *)

val off_in_seg : Param.t -> int -> int
val disk_blocks : Param.t -> int
(** Total device blocks the file system needs. *)
