(** Shared state of a HighLight instance: the wiring hub between the
    block-map driver, the service and I/O processes, and the migrator
    (the boxes of the paper's Fig. 5). Owned by {!Hl}, which constructs
    and exposes it; the sibling modules operate on it. *)

type writeout_status =
  | Pending
  | Done
  | Rehomed of int  (** new tindex *)
  | Failed of string
      (** the copy never reached tertiary storage (retries exhausted or
          device permanently dead); the staged line keeps the only copy *)

exception Io_error of string
(** The EIO surfaced to {!Hl} callers when a demand fetch fails
    permanently — the hierarchy degrades instead of looping forever. *)

(** Service-layer robustness knobs: device faults are retried with
    capped exponential backoff in sim-time ([backoff_base] doubling up
    to [backoff_cap]), at most [max_attempts] attempts per device phase,
    all bounded by [request_timeout] sim-seconds of the engine clock per
    request. All fields are live-tunable. *)
type retry_policy = {
  mutable max_attempts : int;
  mutable backoff_base : float;
  mutable backoff_cap : float;
  mutable request_timeout : float;
}

val default_retry_policy : unit -> retry_policy

type request =
  | Fetch of { line : Seg_cache.line; enqueued : float; is_prefetch : bool }
  | Writeout of {
      line : Seg_cache.line;
      enqueued : float;
      status : writeout_status ref;
      done_cv : Sim.Condvar.t;
    }
  | Progress
      (** internal nudge: cache-line progress occurred while fetches were
          starved for lines; the service loop retries them *)

(** The two worker layouts of the one service pipeline, chosen when
    {!Service.spawn} starts it.
    [Serial] reproduces the paper's measured configuration — a single
    I/O worker running both phases of each transfer, one request at a
    time (Table 4's serial read-then-write pipeline). [Pipelined] is
    the §11 "obvious improvement": a worker per jukebox drive plus a
    cache-disk worker, so the two phases of different transfers
    overlap. *)
type io_mode = Serial | Pipelined

(** The open busy span of a family of transfer phases (Table 4): how
    many phases are in flight and since when at least one has been.
    The per-phase times and the closed spans are [metrics] histograms
    (see [io] and [wo]). *)
type busy = {
  mutable active : int;  (** phases currently in flight *)
  mutable busy_since : float;  (** start of the current busy span *)
}

val busy : unit -> busy

(** Manifest entries: what was staged into a tertiary segment and at
    which address (used to re-home on end-of-medium). *)
type staged_entry =
  | Staged_block of { sb_inum : int; sb_bkey : Lfs.Bkey.t; sb_taddr : int }
  | Staged_inode_block of { si_taddr : int; si_inums : int list }

(** The instance's event stream (DESIGN.md "Instance events"); each
    [int] is a tindex. Per instance, not per engine: a second {!Hl}
    mounted on the same engine hears only its own. *)
type event =
  | Fetch_started of int  (** a reader is about to wait on a fetch: §10's "hold on" *)
  | Fetch_landed of int  (** a fetch reached the cache disk, prefetches included *)
  | Writeout_done of int  (** a write-out reached tertiary storage *)
  | Writeout_chunk of { tindex : int; written : int }  (** media prefix now [written] blocks *)
  | Prefetch_used of int  (** a readahead hint was demanded (idle hints never emit) *)
  | Prefetch_wasted of int  (** a readahead hint left the cache undemanded *)
  | File_access of { inum : int; off : int; len : int; write : bool }
      (** an {!Hl.read_file} / {!Hl.write_file} call *)

type subscriber

(** The instance's pool of segment images: one-segment
    {!Device.Blockstore.image} stores that fetches and write-outs share
    pages through (DESIGN.md "Shared media pages"). *)
type images = {
  mutable free_images : Device.Blockstore.t list;  (** erased, ready to take *)
  mutable images_out : int;  (** taken and not yet given back *)
  mutable moving_images : int;
      (** of those, held by a write-out or a replica copy in flight
          rather than by a line *)
}

type t = {
  engine : Sim.Engine.t;
  metrics : Sim.Metrics.t;
      (** instance-wide registry: request counters, queue-depth gauges,
          latency histograms — see DESIGN.md "Observability" *)
  aspace : Addr_space.t;
  mutable disk : Lfs.Dev.t;  (** the raw concatenated disk farm *)
  fp : Footprint.t;
  cache : Seg_cache.t;
  tseg : Lfs.Segusage.t;  (** tertiary segment usage (tsegfile content) *)
  service_mb : request Sim.Mailbox.t;
  mutable fs : Lfs.Fs.t option;
  manifests : (int, staged_entry list) Hashtbl.t;  (** tindex -> staged entries *)
  replicas : (int, int list) Hashtbl.t;
      (** primary tindex -> replica tindices on other volumes (§5.4);
          replica segments are not counted as live data *)
  io : busy;
      (** Table 4: every fetch and write-out phase — phases observed in
          ["io.disk_phase_s"] / ["io.tertiary_phase_s"], closed busy
          spans in ["io.busy_s"] *)
  mutable streaming_fetch : bool;
      (** when true (default), a fetch publishes its valid-prefix
          watermark chunk by chunk, waking waiters at their first usable
          block; when false, only at landing (blocking behaviour) *)
  mutable streaming_writeout : bool;
      (** when true (default, pipelined mode only), a write-out's
          staging-disk read overlaps its tertiary write within the
          segment behind the read watermark; when false, the whole image
          is read before the write starts *)
  mutable idle_readahead : bool;
      (** off by default: when a tertiary worker goes idle, prefetch the
          warmest uncached segments of the currently loaded volumes
          (cost-aware — never triggers a swap); queued idle prefetches
          are cancelled the moment demand/write-out work arrives.
          Pipelined mode only *)
  mutable stream_chunk_blocks : int;
      (** streaming delivery grain in blocks (the simulated bus already
          transfers at 64 KB; tests shrink this to observe mid-stream
          states on small segments) *)
  wo : busy;
      (** write-out phases only: staging-disk reads and tertiary writes
          (["writeout.disk_phase_s"], ["writeout.tertiary_phase_s"],
          spans in ["writeout.busy_s"]); its overlap is the
          within-segment overlap of the streaming write-out *)
  image_fifo : Seg_cache.line Queue.t;
      (** fetched lines whose in-memory segment image is still attached
          ([Seg_cache.line.image]); {!Service} keeps its depth at the
          pipeline width — the "double buffers" of §6.7 *)
  images : images;
  cache_progress : Sim.Condvar.t;
      (** broadcast whenever a cache line may have become obtainable:
          eviction, segment release, pin release, transfer completion
          (the cache's own {!Seg_cache.freed}) *)
  mutable stop_service : bool;
  mutable prefetch : int -> int list;
      (** given a demand-fetched tindex, further tindices to stage in *)
  mutable subscribers : subscriber list;  (** see {!subscribe} *)
  heat : Obs.Heat.t;
      (** per-tertiary-segment access temperature (half-life decay),
          touched by {!Block_io} on every tertiary read — the
          idle-readahead daemon's warmth signal *)
  idle_kick : Sim.Condvar.t;
      (** poked whenever a tertiary worker runs out of work; the
          idle-readahead daemon sleeps here *)
  mutable avoid_volume : int option;
      (** volume excluded from allocation (being cleaned) *)
  mutable restrict_volume : int option;
      (** when set, tertiary allocation stays on this volume
          (self-contained migration batches, paper §8.2) *)
  retry : retry_policy;  (** consulted by every service/I-O device phase *)
}

exception Tertiary_full

val create :
  engine:Sim.Engine.t ->
  aspace:Addr_space.t ->
  disk:Lfs.Dev.t ->
  fp:Footprint.t ->
  cache:Seg_cache.t ->
  t

val submit : t -> request -> unit
(** Enqueue a request for the service process and signal
    [cache_progress] (a new request is itself progress: a write-out can
    free the line a starved fetch is waiting for). *)

val subscribe : t -> (event -> unit) -> unit -> unit
(** [subscribe st f] delivers every later event to [f], after the
    earlier subscribers; the result unsubscribes [f] alone (idempotent). *)

val emit : t -> event -> unit
(** Delivers the event to every subscriber, in subscription order. *)

val score_prefetch : t -> Seg_cache.line -> [ `Used | `Dropped | `Evicted | `Failed ] -> unit
(** Scores a prefetched line once, at its fate (demanded; withdrawn
    before it ran; evicted; its failed fetch took the line): bumps the
    [prefetch.*] / [idle.*] counter and, for a readahead hint, emits
    [Prefetch_used] or [Prefetch_wasted]. A line no longer [prefetched]
    scores nothing, except that [`Dropped] always counts
    [prefetch.dropped] / [idle.preempted]. *)

val note_progress : t -> unit
(** Broadcast [cache_progress]. *)

val fs : t -> Lfs.Fs.t
(** Raises if called before the file system is attached. *)

val take_image : ?moving:bool -> t -> Device.Blockstore.t
(** An empty segment image from the pool (or a new one): a store of one
    segment, which a fetch or a write-out fills by sharing pages.
    [moving] (default false) counts it as held by a move in flight
    rather than by a line. *)

val give_image : ?moving:bool -> t -> Device.Blockstore.t -> unit
(** Erases the image — its page references drop, its directory stays —
    and returns it to the pool; [moving] as it was taken. *)

val release_image : t -> Seg_cache.line -> unit
(** Detaches the line's image, if it has one, and gives it back: the
    line left [image_fifo], was evicted or dropped, or its fetch failed
    with nothing delivered. *)

val seg_blocks : t -> int
val disk_seg_base : t -> int -> int
(** Physical address of a disk log segment (same formula as
    [Lfs.Layout.seg_base]). *)

val next_tseg : t -> int
(** Allocates the next free tertiary segment at the cursor, skipping
    full volumes; marks it Dirty in the tertiary table and advances the
    persistent cursor. Raises {!Tertiary_full}. *)

val tertiary_live_bytes : t -> int
val tertiary_segments_used : t -> int
