(** Sub-file access-range tracking (paper §5.2). Keeping a record per
    block would be exorbitant; instead accesses are coalesced into
    variable-granularity ranges: a file read sequentially and completely
    stays a single record, a database file accessed randomly splinters
    into per-region records — each then separately considered for
    migration. A per-file record cap bounds the bookkeeping, trading
    decision quality for space exactly as the paper describes.

    The tracker is fed by the application layer (or by the instance's
    [File_access] events); the paper notes the in-kernel mechanism for this
    had "no clear implementation strategy" — this is the user-level
    approximation. *)

type range = {
  lo : int;  (** first logical block *)
  hi : int;  (** last logical block, inclusive *)
  last_access : float;
  last_write : float;
}

type t

val create : ?max_records_per_file:int -> unit -> t

val observe : t -> inum:int -> lbn_lo:int -> lbn_hi:int -> write:bool -> now:float -> unit

val ranges : t -> int -> range list
(** Disjoint, sorted ranges currently tracked for a file. *)

val cold_blocks : t -> now:float -> older_than:float -> (int * Lfs.Bkey.t) list
(** Blocks in ranges idle for at least [older_than], ready to hand to
    the migrator. *)

val forget : t -> int -> unit
(** Drops a file's records (unlink). *)

val attach : t -> block_size:int -> Highlight.Hl.t -> unit -> unit
(** Subscribes the tracker to the instance's [File_access] events;
    returns the unsubscribe. *)
