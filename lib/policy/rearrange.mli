(** Tertiary-segment rearrangement (paper §5.4): when access patterns
    change after data lands on tertiary storage — the paper's example is
    satellite data sets loaded independently, later analysed together —
    performance improves by re-clustering co-accessed segments at fresh,
    contiguous tertiary locations (ideally one volume, saving media
    swaps).

    The variant implemented is the one the paper prefers: rewriting
    segments *as they are read into the cache*, "more likely to reflect
    true access locality". Fetch landings are observed on the
    instance's event stream; segments fetched within a locality window
    form a group, and a group large enough is re-migrated together. Like
    the paper warns, this consumes extra tertiary space — the old copies
    become dead and await the tertiary cleaner. *)

type t

val create :
  ?window:float ->
  ?min_group:int ->
  Highlight.State.t ->
  t
(** [window] (default 300 s): fetches closer together than this belong
    to one access group. [min_group] (default 3): smaller groups are
    not worth rewriting. *)

val install : t -> unit -> unit
(** Starts observing fetch landings ({!Highlight.State.subscribe});
    returns the unsubscribe. Observation only records; call
    {!run_once} to perform the rewrites outside the service process. *)

val pending_groups : t -> int list list
(** Current co-access groups that qualify for rewriting. *)

val run_once : t -> int list
(** Re-clusters every qualifying group into fresh tertiary segments and
    forgets it. Returns the new tertiary segment indices. *)

val replicate : Highlight.State.t -> int -> int option
(** The replica variant of §5.4: copies a tertiary segment verbatim to a
    fresh segment on *another* volume and registers it, so future
    fetches can read whichever copy's volume is already loaded. The
    replica is deliberately not counted as live data (the paper's trick
    for sidestepping reclamation bookkeeping); the tertiary cleaner may
    erase it, after which fetches fall back to the primary. Returns the
    replica's tindex, or [None] if no other volume has room. *)
