type writeout_status = Pending | Done | Rehomed of int | Failed of string

exception Io_error of string

type retry_policy = {
  mutable max_attempts : int;
  mutable backoff_base : float;
  mutable backoff_cap : float;
  mutable request_timeout : float;
}

let default_retry_policy () =
  { max_attempts = 8; backoff_base = 0.05; backoff_cap = 10.0; request_timeout = 600.0 }

type request =
  | Fetch of { line : Seg_cache.line; enqueued : float; is_prefetch : bool }
  | Writeout of {
      line : Seg_cache.line;
      enqueued : float;
      status : writeout_status ref;
      done_cv : Sim.Condvar.t;
    }
  | Progress

type io_mode = Serial | Pipelined

type busy = { mutable active : int; mutable busy_since : float }

let busy () = { active = 0; busy_since = 0.0 }

type staged_entry =
  | Staged_block of { sb_inum : int; sb_bkey : Lfs.Bkey.t; sb_taddr : int }
  | Staged_inode_block of { si_taddr : int; si_inums : int list }

type t = {
  engine : Sim.Engine.t;
  metrics : Sim.Metrics.t;
  aspace : Addr_space.t;
  mutable disk : Lfs.Dev.t;
  fp : Footprint.t;
  cache : Seg_cache.t;
  tseg : Lfs.Segusage.t;
  service_mb : request Sim.Mailbox.t;
  mutable fs : Lfs.Fs.t option;
  manifests : (int, staged_entry list) Hashtbl.t;
  replicas : (int, int list) Hashtbl.t;
  io : busy;
  mutable streaming_fetch : bool;
  mutable streaming_writeout : bool;
  mutable idle_readahead : bool;
      (** when a tertiary worker goes idle, prefetch warm segments off
          the currently loaded volumes (cost-aware: never triggers a
          swap); queued idle prefetches are cancelled the moment demand
          or write-out work arrives *)
  mutable stream_chunk_blocks : int;
  wo : busy;
  mutable on_prefetch_used : int -> unit;
  mutable on_prefetch_wasted : int -> unit;
  image_fifo : Seg_cache.line Queue.t;
      (** fetched lines whose in-memory segment buffer is still attached
          (FIFO of bounded depth — the "double buffers") *)
  cache_progress : Sim.Condvar.t;
  mutable stop_service : bool;
  mutable prefetch : int -> int list;
  mutable on_fetch_start : int -> unit;
  mutable on_fetch : int -> unit;
      (** observation hook: a demand fetch of this tindex completed *)
  mutable on_writeout : int -> unit;
      (** observation hook: a write-out of this tindex reached tertiary
          storage (the crash-recovery harness snapshots here) *)
  mutable on_writeout_chunk : int -> int -> unit;
      (** observation hook: [on_writeout_chunk tindex written] — a
          write-out's written prefix advanced to [written] blocks *)
  heat : Obs.Heat.t;
      (** per-tertiary-segment access temperature (half-life decay),
          touched on every tertiary read — the idle-readahead daemon's
          warmth signal *)
  idle_kick : Sim.Condvar.t;
      (** poked whenever a tertiary worker runs out of work; the
          idle-readahead daemon sleeps here *)
  mutable avoid_volume : int option;
  mutable restrict_volume : int option;
  retry : retry_policy;
}

exception Tertiary_full

let create ~engine ~aspace ~disk ~fp ~cache =
  let st =
  {
    engine;
    metrics = Sim.Metrics.create ();
    aspace;
    disk;
    fp;
    cache;
    tseg =
      Lfs.Segusage.create ~nsegs:(Addr_space.ntsegs aspace)
        ~seg_bytes:(Addr_space.seg_blocks aspace * disk.Lfs.Dev.block_size);
    service_mb = Sim.Mailbox.create ();
    fs = None;
    manifests = Hashtbl.create 16;
    replicas = Hashtbl.create 8;
    io = busy ();
    streaming_fetch = true;
    streaming_writeout = true;
    idle_readahead = false;
    stream_chunk_blocks = 16;
    wo = busy ();
    on_prefetch_used = (fun _ -> ());
    on_prefetch_wasted = (fun _ -> ());
    image_fifo = Queue.create ();
    cache_progress = Sim.Condvar.create ();
    stop_service = false;
    prefetch = (fun _ -> []);
    on_fetch_start = (fun _ -> ());
    on_fetch = (fun _ -> ());
    on_writeout = (fun _ -> ());
    on_writeout_chunk = (fun _ _ -> ());
    heat = Obs.Heat.create ();
    idle_kick = Sim.Condvar.create ();
    avoid_volume = None;
    restrict_volume = None;
    retry = default_retry_policy ();
  }
  in
  (* a pin release or a directory removal can turn a failed cache-line
     allocation into a successful one: route those events to the same
     condition variable the allocators sleep on *)
  Seg_cache.set_on_free cache (fun () -> Sim.Condvar.broadcast st.cache_progress);
  st

(* Every enqueue also kicks [cache_progress]: the service loop may be
   sleeping there (waiting for a line to free up) rather than in
   [Mailbox.recv], and a new request — a write-out in particular — is
   itself a source of progress. *)
let submit t req =
  (match req with
  | Fetch { is_prefetch = false; _ } ->
      Sim.Metrics.incr (Sim.Metrics.counter t.metrics "service.demand_fetches_submitted")
  | Fetch { is_prefetch = true; _ } ->
      Sim.Metrics.incr (Sim.Metrics.counter t.metrics "service.prefetches_submitted")
  | Writeout _ -> Sim.Metrics.incr (Sim.Metrics.counter t.metrics "service.writeouts_submitted")
  | Progress -> ());
  Sim.Mailbox.send t.service_mb req;
  Sim.Condvar.broadcast t.cache_progress

let note_progress t = Sim.Condvar.broadcast t.cache_progress

let fs t =
  match t.fs with Some fs -> fs | None -> failwith "HighLight: file system not attached"

let segbufs t = Lfs.Fs.segbufs (fs t)

let recycle_image t image =
  let holds line = match line.Seg_cache.image with Some i -> i == image | None -> false in
  if not (Queue.fold (fun held line -> held || holds line) false t.image_fifo) then
    Util.Bufpool.give (segbufs t) image

let seg_blocks t = Addr_space.seg_blocks t.aspace
let disk_seg_base t s = (s + 1) * seg_blocks t

let next_tseg t =
  let fsys = fs t in
  let spv = Addr_space.segs_per_volume t.aspace in
  let total = Addr_space.ntsegs t.aspace in
  let start =
    let v = Lfs.Fs.tvol fsys and s = Lfs.Fs.tseg_in_vol fsys in
    ((v * spv) + s) mod total
  in
  (* scan forward from the cursor, wrapping, so volumes reclaimed by the
     tertiary cleaner become allocatable again *)
  let rec hunt step =
    if step >= total then raise Tertiary_full
    else
      let tindex = (start + step) mod total in
      let vol = tindex / spv in
      if
        Footprint.volume_full t.fp vol
        || t.avoid_volume = Some vol
        || match t.restrict_volume with Some v -> v <> vol | None -> false
      then
        (* jump to the start of the next volume *)
        hunt (step + spv - (tindex mod spv))
      else if (Lfs.Segusage.get t.tseg tindex).Lfs.Segusage.state = Lfs.Segusage.Clean then begin
        Lfs.Segusage.set_state t.tseg tindex Lfs.Segusage.Dirty;
        Lfs.Segusage.set_lastmod t.tseg tindex (Sim.Engine.now t.engine);
        Lfs.Fs.set_tertiary_cursor fsys ~tvol:vol ~tseg_in_vol:((tindex mod spv) + 1);
        tindex
      end
      else hunt (step + 1)
  in
  hunt 0

let tertiary_live_bytes t = Lfs.Segusage.live_total t.tseg

let tertiary_segments_used t =
  let n = ref 0 in
  Lfs.Segusage.iter t.tseg (fun _ e -> if e.Lfs.Segusage.state <> Lfs.Segusage.Clean then incr n);
  !n
