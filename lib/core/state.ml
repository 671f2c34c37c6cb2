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

type event =
  | Fetch_started of int
  | Fetch_landed of int
  | Writeout_done of int
  | Writeout_chunk of { tindex : int; written : int }
  | Prefetch_used of int
  | Prefetch_wasted of int
  | File_access of { inum : int; off : int; len : int; write : bool }

(* boxed so that unsubscribing removes this subscription even when the
   same closure is subscribed twice *)
type subscriber = { deliver : event -> unit }

type images = {
  mutable free_images : Device.Blockstore.t list;
  mutable images_out : int;
  mutable moving_images : int;
}

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
  mutable stream_chunk_blocks : int;
  wo : busy;
  image_fifo : Seg_cache.line Queue.t;
  images : images;
  cache_progress : Sim.Condvar.t;
  mutable stop_service : bool;
  mutable prefetch : int -> int list;
  mutable subscribers : subscriber list;
  heat : Obs.Heat.t;
  idle_kick : Sim.Condvar.t;
  mutable avoid_volume : int option;
  mutable restrict_volume : int option;
  retry : retry_policy;
}

exception Tertiary_full

let create ~engine ~aspace ~disk ~fp ~cache =
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
    image_fifo = Queue.create ();
    images = { free_images = []; images_out = 0; moving_images = 0 };
    (* a pin release or a directory removal can turn a failed
       cache-line allocation into a successful one: the allocators
       sleep on the cache's own condition variable *)
    cache_progress = Seg_cache.freed cache;
    stop_service = false;
    prefetch = (fun _ -> []);
    subscribers = [];
    heat = Obs.Heat.create ();
    idle_kick = Sim.Condvar.create ();
    avoid_volume = None;
    restrict_volume = None;
    retry = default_retry_policy ();
  }

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

let subscribe t f =
  let sub = { deliver = f } in
  t.subscribers <- t.subscribers @ [ sub ];
  fun () -> t.subscribers <- List.filter (fun s -> s != sub) t.subscribers

(* no closure allocated while nobody listens *)
let emit t ev =
  match t.subscribers with [] -> () | subs -> List.iter (fun s -> s.deliver ev) subs

let count t name = Sim.Metrics.incr (Sim.Metrics.counter t.metrics name)

(* Idle-daemon speculation is scored under idle.* only: it must never
   move the adaptive readahead's depth. Clearing [prefetched] makes the
   first fate the only one scored. *)
let score_prefetch t line (fate : [ `Used | `Dropped | `Evicted | `Failed ]) =
  let idle = line.Seg_cache.idle_hint in
  (* a withdrawn hint counts as withdrawn even when a reader that rode
     along on it already scored it used *)
  if fate = `Dropped then count t (if idle then "idle.preempted" else "prefetch.dropped");
  if line.Seg_cache.prefetched then begin
    line.Seg_cache.prefetched <- false;
    let tindex = line.Seg_cache.tindex in
    match (fate, idle) with
    | `Used, true -> count t "idle.used"
    | `Used, false ->
        count t "prefetch.used";
        emit t (Prefetch_used tindex)
    | (`Evicted | `Failed), true -> count t "idle.evicted_unused"
    | `Evicted, false ->
        count t "prefetch.evicted_unused";
        emit t (Prefetch_wasted tindex)
    | (`Dropped | `Failed), false -> emit t (Prefetch_wasted tindex)
    | `Dropped, true -> ()
  end

let note_progress t = Sim.Condvar.broadcast t.cache_progress

let fs t =
  match t.fs with Some fs -> fs | None -> failwith "HighLight: file system not attached"

let seg_blocks t = Addr_space.seg_blocks t.aspace
let disk_seg_base t s = (s + 1) * seg_blocks t

(* An image holds no bytes, only references to the pages it was filled
   from; erasing it on the way back drops them, so a pooled image pins
   nothing and a later write to those pages goes in place. *)
let take_image ?(moving = false) t =
  let p = t.images in
  p.images_out <- p.images_out + 1;
  if moving then p.moving_images <- p.moving_images + 1;
  match p.free_images with
  | img :: rest ->
      p.free_images <- rest;
      img
  | [] -> Device.Blockstore.image ~block_size:t.disk.Lfs.Dev.block_size ~nblocks:(seg_blocks t)

let give_image ?(moving = false) t img =
  let p = t.images in
  if List.memq img p.free_images then invalid_arg "State.give_image: image already free";
  Device.Blockstore.erase img;
  p.images_out <- p.images_out - 1;
  if moving then p.moving_images <- p.moving_images - 1;
  p.free_images <- img :: p.free_images

let release_image t line =
  Option.iter (give_image t) line.Seg_cache.image;
  line.Seg_cache.image <- None

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
