(** The automatic migration daemon: a continuously-running process that
    watches free disk space and migrates cold data when it runs low —
    the paper's §8.2 contrast with Strange's nightly batch ("HighLight
    should not require a large periodic computation ... instead it
    allows a migrator process to run continuously").

    Migration alone only *kills* disk blocks; the regular cleaner then
    reclaims the emptied segments, so a migration round is followed by a
    cleaning pass up to the high watermark. *)

type policy_fn = Lfs.Fs.t -> target_bytes:int -> int list
(** Chooses the files (inums) to migrate for a byte target. *)

val stp_policy : Stp.t -> policy_fn

val disk_resident : Highlight.State.t -> int -> bool
(** True when the file still has disk-resident blocks (worth migrating). *)

val run_once :
  ?policy_id:string ->
  Highlight.State.t ->
  policy:policy_fn ->
  low_water:int ->
  high_water:int ->
  int
(** One wake-up: if clean segments < [low_water], migrate and clean
    until [high_water] clean segments (or no candidates remain).
    Returns the number of files migrated. [policy_id] (default
    ["custom"]) labels the [Automigrate] decision record emitted for
    the acted-on file set when the observatory is installed. *)

val spawn :
  Highlight.State.t ->
  ?period:float ->
  ?policy_id:string ->
  policy:policy_fn ->
  low_water:int ->
  high_water:int ->
  unit ->
  unit -> unit
(** Daemon form; returns the shutdown function. *)
