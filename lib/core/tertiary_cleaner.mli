(** Tertiary-media cleaner — the paper's §10 future work, implemented
    here. It reclaims whole volumes at a time (to minimise media swaps
    and tape wear): every live block found on the victim volume is
    re-migrated to fresh tertiary segments on other volumes, then the
    volume is erased and all its segments return to the allocatable
    pool. WORM media cannot be cleaned and are rejected. *)

type result = {
  volume : int;
  segments_scanned : int;
  blocks_remigrated : int;
  inodes_remigrated : int;
}

val volume_segment : State.t -> int -> Lfs.Cleaner.source
(** A tertiary segment as {!Lfs.Cleaner.fold_segment} walks it: read
    block by block from its volume. *)

val live_contents : State.t -> int -> (int * Lfs.Bkey.t) list * int list
(** Live (inum, block) pairs and live inode inums recorded in a tertiary
    segment's summaries — the unit of work for rearrangement (§5.4) and
    volume cleaning. *)

val volume_live_bytes : State.t -> int -> int

val select_volume : State.t -> int option
(** The fullest-but-least-live volume worth cleaning: it must have at
    least one non-clean segment and not be the current writing target. *)

val clean_volume : State.t -> int -> result
(** Re-migrates live data off the volume, erases it, and checkpoints.
    Raises [Invalid_argument] for WORM media. *)

val clean_if_needed : State.t -> free_target:int -> result list
(** Cleans volumes (emptiest first) until at least [free_target]
    tertiary segments are allocatable, or nothing more can be done. *)
