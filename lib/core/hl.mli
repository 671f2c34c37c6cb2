(** HighLight: the public face of the hierarchy-managing file system.

    A HighLight instance is an LFS whose address space extends over one
    or more jukeboxes behind a {!Footprint} interface. Applications use
    the ordinary {!Lfs.Dir} / {!Lfs.File} operations against {!fs};
    tertiary residency is invisible except through access times, exactly
    as the paper promises. The {!Migrator} moves data down the
    hierarchy, the service/I/O processes fetch it back on demand.

    {[
      let hl = Hl.mkfs engine prm ~disk ~fp () in
      let f = Lfs.Dir.create_file (Hl.fs hl) "/data" in
      Lfs.File.write (Hl.fs hl) f ~off:0 payload;
      ignore (Migrator.migrate_paths (Hl.state hl) [ "/data" ]);
      (* reads now demand-fetch from the jukebox transparently *)
      let again = Lfs.File.read (Hl.fs hl) f ~off:0 ~len:4096 in
      ...
    ]} *)

type t

val mkfs :
  Sim.Engine.t ->
  Lfs.Param.t ->
  disk:Lfs.Dev.t ->
  fp:Footprint.t ->
  ?cache_segs:int ->
  ?cache_policy:Seg_cache.policy ->
  ?dead_zone_segs:int ->
  ?io_mode:State.io_mode ->
  unit ->
  t
(** Formats the disk farm as a HighLight file system whose tertiary
    space covers every volume of [fp]. [cache_segs] caps the disk
    segments usable as tertiary cache lines (default: a quarter of the
    disk segments), fixed at file-system creation like the paper's
    static split. [dead_zone_segs] (default 64) sizes the invalid
    address range between disk and tertiary space, i.e. the headroom
    for {!grow_disk}. [io_mode] (default [Pipelined]) sets the worker
    layout of the service pipeline — see {!Service}. *)

val mount :
  Sim.Engine.t ->
  disk:Lfs.Dev.t ->
  fp:Footprint.t ->
  ?cpu:Lfs.Param.cpu ->
  ?bcache_blocks:int ->
  ?cache_policy:Seg_cache.policy ->
  ?io_mode:State.io_mode ->
  unit ->
  t

val spawn_cleaner_daemon :
  t -> ?period:float -> low_water:int -> high_water:int -> unit -> unit -> unit
(** Background segment cleaner (the paper's user-level cleaner process);
    returns the shutdown function. The automigration daemon lives in
    [Policy.Automigrate.spawn], which composes with this. *)

val unmount : t -> unit

val fs : t -> Lfs.Fs.t
val state : t -> State.t
val engine : t -> Sim.Engine.t
val cache : t -> Seg_cache.t

val metrics : t -> Sim.Metrics.t
(** The instance-wide metrics registry (counters, gauges, latency
    histograms); export with {!Sim.Metrics.to_json}. *)

val shutdown_service : t -> unit
(** Stops the service/I-O processes and drains their block points, so a
    quiesced instance leaves no process parked (useful before checking
    {!Sim.Engine.blocked_process_names}). Idempotent; {!unmount} calls
    it too. *)

val grow_disk : t -> added_segs:int -> ?new_disk:Lfs.Dev.t -> unit -> unit
(** On-line disk addition (paper §6.3/§6.4): the new log segments claim
    part of the address-space dead zone; the ifile tables are extended
    and the superblock rewritten, all while mounted. Pass [new_disk]
    when the farm gains a spindle (e.g. a new concatenation). *)

val set_prefetch_sequential : t -> depth:int -> unit
(** On a demand fetch, also stage the next [depth] segments of the same
    volume (the clustered-layout prefetch of paper §5.1/§5.3) — the
    fixed-depth baseline the adaptive policy is benchmarked against. *)

val set_prefetch_adaptive : t -> ?min_depth:int -> ?max_depth:int -> unit -> Readahead.t
(** Installs the accuracy-adaptive sequential readahead (see
    {!Readahead}): hints stay within the demanded volume, depth is
    exported as the ["prefetch.depth"] gauge, and every prefetched
    line's fate (demanded vs. dropped / evicted unused) feeds back into
    the depth, through a subscription the next prefetch policy installed
    cancels. Returns the detector for direct inspection. *)

val set_prefetch_hints : t -> (int -> int list) -> unit
(** Arbitrary prefetch policy: given a fetched tindex, more to load. *)

val set_streaming_fetch : t -> bool -> unit
(** Default [true]: demand fetches deliver chunk-by-chunk into the
    line's in-memory image, waking each waiter the moment the chunk
    holding its block arrives (watermark protocol — see DESIGN.md).
    [false] restores the blocking behaviour, where waiters sleep until
    the whole segment has landed on the cache disk (the same transfer,
    with the watermark published only at landing). *)

val set_streaming_writeout : t -> bool -> unit
(** Default [true]: in pipelined mode a write-out's staging-disk read
    and its tertiary write overlap within the segment behind a read
    watermark ("Streaming write-out" in DESIGN.md), on every media kind
    — a torn write resumes at its written prefix, so WORM needs no
    special path. [false] reads the whole image before the write. *)

val set_idle_readahead : t -> bool -> unit
(** Default [false]: when enabled, a tertiary worker running out of
    work triggers a cost-aware speculative fetch of the warmest uncached
    segment on a currently-loaded volume (never causes a robot swap);
    queued idle prefetches are cancelled the moment demand or write-out
    work arrives. No effect in [Serial] io mode. *)

val eject_tertiary_copies : t -> paths:string list -> unit
(** Drops the cached copies of the tertiary segments holding these
    files' blocks (benchmark support: force future reads to fetch). *)

(** {1 Convenience I/O}

    Thin wrappers over {!Lfs.File} that also emit a {!State.File_access}
    event while anything is subscribed ({!State.subscribe}). *)

val write_file : t -> string -> ?off:int -> Bytes.t -> unit
val read_file : t -> string -> ?off:int -> ?len:int -> unit -> Bytes.t

(** {1 Introspection} *)

(** A view over the instance's metrics registry ({!metrics}) and its
    {!Footprint}: every count and time below is read from the one
    series named in its comment (a histogram's time is its
    {!Sim.Metrics.hist_sum}); nothing is kept twice. All fields are
    deltas since the last {!reset_stats} (or since mkfs/mount), except
    [cache_lines], [tertiary_live_bytes], [tertiary_segments_used] —
    current state — and [attribution], which reads the ambient
    {!Sim.Ledger} registry. *)
type stats = {
  demand_fetches : int;
      (** Demand fetches issued, tail re-fetches of Partial lines
          included (["service.demand_fetches_submitted"]). *)
  writeouts : int;
      (** Write-outs whose segment reached tertiary storage
          (["service.writeouts"]). *)
  rehomes : int;
      (** Staged segments moved to another volume at end-of-medium
          (["service.rehomes"]). *)
  queue_time : float;
      (** Table 4 queueing: request enqueue → worker dispatch, summed
          over fetches and write-outs (["service.queue_wait_s"]). *)
  io_disk_time : float;
      (** Busy time of the cache-disk transfer phases
          (["io.disk_phase_s"]). *)
  io_tertiary_time : float;
      (** Busy time of the tertiary (jukebox) transfer phase, the
          counterpart of [io_disk_time] for the cache disk
          (["io.tertiary_phase_s"]). *)
  io_overlap : float;
      (** (tertiary + disk busy time) / wall time either was busy
          (["io.busy_s"], one observation per busy span): 1.0 =
          strictly serial phases, up to 2.0 when both devices run
          concurrently — the Table 4 "overlapped" figure. 1.0 when
          idle. *)
  writeout_overlap : float;
      (** The same ratio restricted to write-out phases
          (["writeout.disk_phase_s"], ["writeout.tertiary_phase_s"],
          ["writeout.busy_s"]): 1.0 when each write-out's staging-disk
          read and tertiary write serialize (blocking pipeline),
          approaching 2.0 when the streaming pipeline runs them
          concurrently within the segment. *)
  partial_line_serves : int;
      (** Reads served from the delivered prefix of a Partial cache
          line — a failed streaming fetch whose data was kept
          (["cache.partial_serves"]). *)
  tail_refetch_bytes : int;
      (** Bytes re-fetched by tail-only re-fetches of Partial lines
          (["cache.tail_refetch_blocks"] × block size) — the traffic
          the partial-line cache did NOT have to repeat. *)
  idle_prefetches_issued : int;
      (** Speculative fetches issued by the idle-readahead daemon
          (["idle.issued"]). *)
  idle_prefetches_preempted : int;
      (** Idle prefetches cancelled while still queued because demand
          or write-out work arrived (["idle.preempted"]). *)
  idle_prefetches_wasted : int;
      (** Idle-prefetched lines evicted or failed without ever being
          demanded (["idle.evicted_unused"]). *)
  prefetches_dropped : int;
      (** Prefetches cancelled because no cache line was available
          (["prefetch.dropped"]). *)
  prefetches_used : int;
      (** Prefetched lines demanded before eviction (["prefetch.used"]). *)
  prefetches_wasted : int;
      (** Prefetches dropped or evicted untouched (["prefetch.dropped"]
          + ["prefetch.evicted_unused"]). *)
  prefetch_accuracy : float;
      (** used / (used + wasted); 1.0 when no prefetch outcome exists. *)
  footprint_time : float;
      (** Time spent inside Footprint calls
          ({!Footprint.time_in_footprint}). *)
  cache_lines : int;  (** Lines in the segment cache now. *)
  cache_hits : int;  (** Tertiary reads served by a cache line (["cache.hits"]). *)
  cache_misses : int;
      (** Tertiary reads that had to fetch (["cache.misses"]); a read
          riding along an in-flight fetch is neither. *)
  cache_evictions : int;  (** Lines ejected (["cache.evictions"]). *)
  blocks_migrated : int;
      (** Live blocks staged to tertiary segments
          (["migrator.blocks_migrated"]). *)
  bytes_migrated : int;  (** [blocks_migrated] × block size. *)
  segments_staged : int;  (** Tertiary segments assembled (["migrator.segments_staged"]). *)
  inodes_migrated : int;
      (** Inodes packed into tertiary segments
          (["migrator.inodes_migrated"]). *)
  tertiary_live_bytes : int;  (** Live bytes in the tertiary usage table now. *)
  tertiary_segments_used : int;  (** Tertiary segments not Clean now. *)
  fetch_latency_p50 : float;
  fetch_latency_p95 : float;
  fetch_latency_p99 : float;
      (** Demand-fetch wait percentiles, from the
          ["service.demand_fetch_latency_s"] histogram (0 when no demand
          fetch has completed since the last reset). *)
  first_block_p50 : float;
  first_block_p95 : float;
      (** Time from demand miss to the first usable block, from the
          ["service.first_block_latency_s"] histogram — with streaming
          fetches this is what a blocked reader actually waits. *)
  io_retries : int;
      (** Device phases re-issued after an injected fault (the
          ["service.retries"] counter). *)
  io_failures : int;
      (** Requests that exhausted the retry policy (["service.io_failures"]):
          the fetch or write-out surfaced an error instead of data. *)
  faults_injected : int;
      (** Faults fired by the ambient {!Sim.Fault} plan against this
          instance's devices (["faults.injected"]; 0 with no plan). *)
  tcleaner_volumes_cleaned : int;
      (** Tertiary-volume cleaning passes completed
          (["tcleaner.volumes_cleaned"]). *)
  tcleaner_segments_scanned : int;
      (** Tertiary segments examined for live data during volume cleans
          (["tcleaner.segments_scanned"]). *)
  tcleaner_blocks_remigrated : int;
      (** Live blocks re-staged off cleaned volumes
          (["tcleaner.blocks_remigrated"]). *)
  tcleaner_inodes_remigrated : int;
      (** Inodes whose blocks were pulled back by volume cleaning
          (["tcleaner.inodes_remigrated"]). *)
  attribution : (string * float) list;
      (** Wait-profile blame per {!Sim.Ledger} category (seconds, summed
          over every request class, highest first); [] when no ledger
          registry is installed. *)
}

val stats : t -> stats

val reset_stats : t -> unit
(** Start a new measurement window: {!Sim.Metrics.reset} on the
    registry, {!Footprint.reset_stats}, and the busy spans open right
    now restart at the current time. Every {!stats} field except the
    current-state ones ([cache_lines], [tertiary_*]) and [attribution]
    then reads as a delta from here. *)

val check : t -> string list
(** LFS invariants plus hierarchy invariants (cache directory vs
    segusage tags, tertiary table consistency, every segment image
    taken attached to a line or held by a write-out in flight, and none
    of them back in the image pool). *)
