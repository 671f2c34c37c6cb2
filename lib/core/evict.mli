(** Cache-line eviction and allocation (paper §6.4, §10): turns disk
    segments into tertiary cache lines, ejecting policy-chosen victims
    when the clean pool or the static cache cap runs out. Used by the
    service dispatcher (demand fetches, prefetches), the migrator
    (staging lines) and housekeeping ({!Hl}, the tertiary cleaner). *)

val eject : State.t -> Seg_cache.line -> unit
(** Synchronously discards a cache line (must be evictable), returning
    its disk segment to the clean pool. *)

val choose_victim : State.t -> Seg_cache.line option
(** Policy victim selection with decision observability: when the
    observatory is installed, emits a [Cache_evict] decision record
    (victim plus passed-over candidates) and registers the victim for
    the eviction-regret SLI. Zero-cost when the observatory is off. *)

val try_allocate : State.t -> int option
(** One allocation attempt that never waits: ejects a victim when past
    the cap or when the clean pool is empty; [None] when nothing could
    be freed. *)

val allocate : State.t -> int
(** Obtains a disk segment for use as a cache line, sleeping on
    [State.t.cache_progress] while everything is pinned or in flight. *)
