open Lfs

type t = {
  st : State.t;
  fsys : Fs.t;
  shutdown : unit -> unit;
  mutable readahead_sub : unit -> unit;  (* ends the adaptive policy's scoring *)
}

let fs t = t.fsys
let state t = t.st
let engine t = t.st.State.engine
let cache t = t.st.State.cache
let metrics t = t.st.State.metrics
let shutdown_service t = t.shutdown ()

let tseg_file_blocks st =
  Segusage.nblocks ~nsegs:(Addr_space.ntsegs st.State.aspace)
    ~block_size:st.State.disk.Dev.block_size

(* The tsegfile (inum 3) is serialized at every checkpoint, before the
   log flush, so the tertiary usage table is recoverable like the ifile
   tables. *)
let hooks st =
  {
    Fs.reclaim =
      (fun () ->
        match Evict.choose_victim st with
        | Some victim ->
            Evict.eject st victim;
            true
        | None -> false);
    is_foreign = (fun addr -> not (Addr_space.is_disk st.State.aspace addr));
    account_foreign =
      (fun ~addr delta ->
        if Addr_space.is_tertiary st.State.aspace addr then
          Segusage.add_live st.State.tseg (Addr_space.tindex_of_addr st.State.aspace addr) delta);
    pre_checkpoint =
      (fun fsys ->
        let bs = (Fs.param fsys).Param.block_size in
        match Fs.get_inode fsys 3 with
        | exception Not_found -> ()
        | tf ->
            let dirty = Segusage.dirty_blocks st.State.tseg ~block_size:bs in
            if dirty <> [] then begin
              List.iter
                (fun idx ->
                  Fs.put_block fsys tf (Bkey.Data idx)
                    (Segusage.serialize_block st.State.tseg ~block_size:bs idx))
                dirty;
              Segusage.clear_dirty st.State.tseg;
              Fs.mark_inode_dirty fsys tf
            end);
    segments_freed = (fun () -> State.note_progress st);
  }

let mkfs engine prm ~disk ~fp ?cache_segs ?(cache_policy = Seg_cache.Lru)
    ?(dead_zone_segs = 64) ?(io_mode = State.Pipelined) () =
  Param.validate prm;
  if prm.Param.seg_blocks <> Footprint.seg_blocks fp then
    invalid_arg "Hl.mkfs: footprint segment size differs from the file system's";
  let cache_segs = Option.value cache_segs ~default:(max 2 (prm.Param.nsegs / 4)) in
  let disk_blocks = Layout.disk_blocks prm in
  let aspace =
    Addr_space.create ~disk_blocks ~seg_blocks:prm.Param.seg_blocks
      ~nvolumes:(Footprint.nvolumes fp)
      ~segs_per_volume:(Footprint.segs_per_volume fp) ~dead_zone_segs ()
  in
  let cache = Seg_cache.create ~policy:cache_policy ~max_lines:cache_segs () in
  let st = State.create ~engine ~aspace ~disk ~fp ~cache in
  let dev = Block_io.dev st in
  let tertiary =
    {
      Superblock.addr_space_blocks = Addr_space.total_blocks aspace;
      nvolumes = Footprint.nvolumes fp;
      segs_per_volume = Footprint.segs_per_volume fp;
      cache_segs;
    }
  in
  let fsys = Fs.mkfs engine prm dev ~tertiary () in
  st.State.fs <- Some fsys;
  Fs.set_hooks fsys (hooks st);
  (* size the tsegfile and persist its initial (all-clean) contents *)
  let tf = Fs.get_inode fsys 3 in
  tf.Inode.size <- tseg_file_blocks st * prm.Param.block_size;
  Segusage.mark_all_dirty st.State.tseg;
  Fs.checkpoint fsys;
  let shutdown = Service.spawn st ~io_mode in
  { st; fsys; shutdown; readahead_sub = ignore }

let mount engine ~disk ~fp ?cpu ?bcache_blocks ?(cache_policy = Seg_cache.Lru)
    ?(io_mode = State.Pipelined) () =
  (* peek at the superblock for the tertiary configuration *)
  let sb_block = disk.Dev.read ~blk:Layout.superblock_addr ~count:1 in
  let sb =
    match Superblock.deserialize sb_block with
    | Ok sb -> sb
    | Error msg -> failwith ("Hl.mount: " ^ msg)
  in
  let tc =
    match sb.Superblock.tertiary with
    | Some tc -> tc
    | None -> failwith "Hl.mount: not a HighLight file system (no tertiary config)"
  in
  if tc.Superblock.nvolumes <> Footprint.nvolumes fp
     || tc.Superblock.segs_per_volume <> Footprint.segs_per_volume fp
  then failwith "Hl.mount: footprint does not match the recorded tertiary configuration";
  let disk_blocks = (sb.Superblock.nsegs + 1) * sb.Superblock.seg_blocks in
  let aspace = Addr_space.of_config ~disk_blocks ~seg_blocks:sb.Superblock.seg_blocks tc in
  let cache =
    Seg_cache.create ~policy:cache_policy ~max_lines:tc.Superblock.cache_segs ()
  in
  let st = State.create ~engine ~aspace ~disk ~fp ~cache in
  let dev = Block_io.dev st in
  let fsys = Fs.mount engine ?cpu ?bcache_blocks dev in
  st.State.fs <- Some fsys;
  (* rebuild the tertiary usage table from the tsegfile *)
  let bs = (Fs.param fsys).Param.block_size in
  (match Fs.get_inode fsys 3 with
  | exception Not_found -> failwith "Hl.mount: tsegfile missing"
  | tf ->
      for idx = 0 to tseg_file_blocks st - 1 do
        match Fs.get_block fsys tf (Bkey.Data idx) with
        | Some b -> Segusage.load_block st.State.tseg ~block_size:bs idx b
        | None -> ()
      done;
      Segusage.clear_dirty st.State.tseg);
  Fs.set_hooks fsys (hooks st);
  (* reconstruct the cache directory from the segusage cache tags; the
     cached copies on disk are still valid read-only copies *)
  Segusage.iter (Fs.seguse fsys) (fun seg e ->
      if e.Segusage.state = Segusage.Cached && e.Segusage.cache_tag >= 0 then
        ignore
          (Seg_cache.insert st.State.cache ~tindex:e.Segusage.cache_tag ~disk_seg:seg
             ~state:Seg_cache.Resident ~now:(Sim.Engine.now engine)));
  let shutdown = Service.spawn st ~io_mode in
  { st; fsys; shutdown; readahead_sub = ignore }

let grow_disk t ~added_segs ?new_disk () =
  let prm = Fs.param t.fsys in
  let new_blocks = (prm.Param.nsegs + 1 + added_segs) * prm.Param.seg_blocks in
  Addr_space.grow_disk t.st.State.aspace ~disk_blocks:new_blocks;
  (match new_disk with
  | Some d ->
      if d.Dev.nblocks < new_blocks then invalid_arg "Hl.grow_disk: new farm too small";
      (* the raw farm is swapped underneath the block-map driver; the
         file system keeps talking to the same unified address space *)
      t.st.State.disk <- d
  | None -> ());
  Fs.grow t.fsys ~added_segs ()

(* Hands-off operation: the cleaner and the automigrator daemons are
   usually spawned from Policy; this starts the cleaner half, which has
   no policy dependencies. *)
let spawn_cleaner_daemon t ?(period = 30.0) ~low_water ~high_water () =
  Cleaner.spawn_daemon t.fsys ~period ~low_water ~high_water ()

let unmount t =
  Fs.unmount t.fsys;
  t.shutdown ()

(* Installing a prefetch policy retires the previous one, including
   the adaptive policy's scoring subscription. *)
let set_prefetch_hints t f =
  t.readahead_sub ();
  t.readahead_sub <- ignore;
  t.st.State.prefetch <- f

(* stay within the same volume: crossing volumes means a swap *)
let same_volume t tindex hints =
  let spv = Addr_space.segs_per_volume t.st.State.aspace in
  List.filter (fun x -> x / spv = tindex / spv) hints

let set_prefetch_sequential t ~depth =
  set_prefetch_hints t (fun tindex ->
      same_volume t tindex (List.init depth (fun i -> tindex + i + 1)))

let set_prefetch_adaptive t ?min_depth ?max_depth () =
  let ra = Readahead.create ?min_depth ?max_depth () in
  let depth_gauge = Sim.Metrics.gauge t.st.State.metrics "prefetch.depth" in
  let publish () = Sim.Metrics.set depth_gauge (float_of_int (Readahead.depth ra)) in
  publish ();
  set_prefetch_hints t (fun tindex ->
      let hs = same_volume t tindex (Readahead.hints ra ~tindex) in
      publish ();
      hs);
  t.readahead_sub <-
    State.subscribe t.st (function
      | State.Prefetch_used _ ->
          Readahead.note_used ra;
          publish ()
      | State.Prefetch_wasted _ ->
          Readahead.note_wasted ra;
          publish ()
      | _ -> ());
  ra

let set_streaming_fetch t flag = t.st.State.streaming_fetch <- flag
let set_streaming_writeout t flag = t.st.State.streaming_writeout <- flag
let set_idle_readahead t flag = t.st.State.idle_readahead <- flag

let eject_tertiary_copies t ~paths =
  let fsys = t.fsys in
  List.iter
    (fun path ->
      match Dir.namei_opt fsys path with
      | None -> ()
      | Some ino ->
          File.iter_assigned_blocks fsys ino (fun bkey addr ->
              if Addr_space.is_tertiary t.st.State.aspace addr then begin
                (* never drop a dirty buffer: it holds unflushed edits
                   that supersede the tertiary copy *)
                let key = Bcache.key ino.Inode.inum bkey in
                if not (Bcache.is_dirty (Fs.bcache fsys) key) then Bcache.drop (Fs.bcache fsys) key;
                let tindex = Addr_space.tindex_of_addr t.st.State.aspace addr in
                match Seg_cache.find t.st.State.cache tindex with
                | Some line
                  when line.Seg_cache.state = Seg_cache.Resident
                       || line.Seg_cache.state = Seg_cache.Staged_clean ->
                    Evict.eject t.st line
                | _ -> ()
              end);
          (* the inode itself may live on tertiary storage *)
          let e = Imap.get (Fs.imap fsys) ino.Inode.inum in
          if e.Imap.addr > 0 && Addr_space.is_tertiary t.st.State.aspace e.Imap.addr then begin
            let tindex = Addr_space.tindex_of_addr t.st.State.aspace e.Imap.addr in
            match Seg_cache.find t.st.State.cache tindex with
            | Some line
              when line.Seg_cache.state = Seg_cache.Resident
                   || line.Seg_cache.state = Seg_cache.Staged_clean ->
                Evict.eject t.st line
            | _ -> ()
          end)
    paths

(* the event is built only while somebody listens *)
let access t ~inum ~off ~len ~write =
  match t.st.State.subscribers with
  | [] -> ()
  | _ -> State.emit t.st (State.File_access { inum; off; len; write })

let write_file t path ?(off = 0) data =
  let ino =
    match Dir.namei_opt t.fsys path with
    | Some ino -> ino
    | None -> Dir.create_file t.fsys path
  in
  access t ~inum:ino.Inode.inum ~off ~len:(Bytes.length data) ~write:true;
  File.write t.fsys ino ~off data

let read_file t path ?(off = 0) ?len () =
  let ino = Dir.namei t.fsys path in
  let len = Option.value len ~default:(ino.Inode.size - off) in
  access t ~inum:ino.Inode.inum ~off ~len ~write:false;
  File.read t.fsys ino ~off ~len

type stats = {
  demand_fetches : int;
  writeouts : int;
  rehomes : int;
  queue_time : float;
  io_disk_time : float;
  io_tertiary_time : float;
  io_overlap : float;
  writeout_overlap : float;
  partial_line_serves : int;
  tail_refetch_bytes : int;
  idle_prefetches_issued : int;
  idle_prefetches_preempted : int;
  idle_prefetches_wasted : int;
  prefetches_dropped : int;
  prefetches_used : int;
  prefetches_wasted : int;
  prefetch_accuracy : float;
  footprint_time : float;
  cache_lines : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  blocks_migrated : int;
  bytes_migrated : int;
  segments_staged : int;
  inodes_migrated : int;
  tertiary_live_bytes : int;
  tertiary_segments_used : int;
  fetch_latency_p50 : float;
  fetch_latency_p95 : float;
  fetch_latency_p99 : float;
  first_block_p50 : float;
  first_block_p95 : float;
  io_retries : int;
  io_failures : int;
  faults_injected : int;
  tcleaner_volumes_cleaned : int;
  tcleaner_segments_scanned : int;
  tcleaner_blocks_remigrated : int;
  tcleaner_inodes_remigrated : int;
  attribution : (string * float) list;
}

(* Per-category blame summed over every request class, blame-ranked —
   the top-level "where did the time go" of the wait-profile ledgers. *)
let attribution_breakdown () =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun cs ->
      List.iter
        (fun (c : Sim.Ledger.cat_stat) ->
          let k = Sim.Ledger.category_name c.Sim.Ledger.cat in
          let prev = Option.value (Hashtbl.find_opt totals k) ~default:0.0 in
          Hashtbl.replace totals k (prev +. c.Sim.Ledger.total_s))
        cs.Sim.Ledger.by_category)
    (Sim.Ledger.summary ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
  |> List.sort (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb))

let stats t =
  let st = t.st in
  let hist f ~none series =
    match Sim.Metrics.find_histogram st.State.metrics series with
    | Some h -> f h
    | None -> none
  in
  let pct series q = hist (fun h -> Sim.Metrics.percentile h q) ~none:0.0 series in
  let sum = hist Sim.Metrics.hist_sum ~none:0.0 in
  (* (disk + tertiary phase time) / busy-span time: 1.0 when the phases
     serialize, up to 2.0 when both devices are always busy at once;
     1.0 when idle *)
  let overlap family =
    let union = sum (family ^ ".busy_s") in
    let phases = sum (family ^ ".disk_phase_s") +. sum (family ^ ".tertiary_phase_s") in
    if union > 0.0 then phases /. union else 1.0
  in
  let fetch_pct = pct "service.demand_fetch_latency_s" in
  let count name = Sim.Metrics.count (Sim.Metrics.counter st.State.metrics name) in
  let pf_used = count "prefetch.used" in
  let pf_wasted = count "prefetch.dropped" + count "prefetch.evicted_unused" in
  {
    demand_fetches = count "service.demand_fetches_submitted";
    writeouts = count "service.writeouts";
    rehomes = count "service.rehomes";
    queue_time = sum "service.queue_wait_s";
    io_disk_time = sum "io.disk_phase_s";
    io_tertiary_time = sum "io.tertiary_phase_s";
    io_overlap = overlap "io";
    writeout_overlap = overlap "writeout";
    partial_line_serves = count "cache.partial_serves";
    tail_refetch_bytes =
      count "cache.tail_refetch_blocks" * Footprint.block_size st.State.fp;
    idle_prefetches_issued = count "idle.issued";
    idle_prefetches_preempted = count "idle.preempted";
    idle_prefetches_wasted = count "idle.evicted_unused";
    prefetches_dropped = count "prefetch.dropped";
    prefetches_used = pf_used;
    prefetches_wasted = pf_wasted;
    prefetch_accuracy =
      (if pf_used + pf_wasted = 0 then 1.0
       else float_of_int pf_used /. float_of_int (pf_used + pf_wasted));
    footprint_time = Footprint.time_in_footprint st.State.fp;
    cache_lines = Seg_cache.length st.State.cache;
    cache_hits = count "cache.hits";
    cache_misses = count "cache.misses";
    cache_evictions = count "cache.evictions";
    blocks_migrated = count "migrator.blocks_migrated";
    bytes_migrated = count "migrator.blocks_migrated" * (Fs.param t.fsys).Param.block_size;
    segments_staged = count "migrator.segments_staged";
    inodes_migrated = count "migrator.inodes_migrated";
    tertiary_live_bytes = State.tertiary_live_bytes st;
    tertiary_segments_used = State.tertiary_segments_used st;
    fetch_latency_p50 = fetch_pct 0.5;
    fetch_latency_p95 = fetch_pct 0.95;
    fetch_latency_p99 = fetch_pct 0.99;
    first_block_p50 = pct "service.first_block_latency_s" 0.5;
    first_block_p95 = pct "service.first_block_latency_s" 0.95;
    io_retries = count "service.retries";
    io_failures = count "service.io_failures";
    faults_injected = count "faults.injected";
    tcleaner_volumes_cleaned = count "tcleaner.volumes_cleaned";
    tcleaner_segments_scanned = count "tcleaner.segments_scanned";
    tcleaner_blocks_remigrated = count "tcleaner.blocks_remigrated";
    tcleaner_inodes_remigrated = count "tcleaner.inodes_remigrated";
    attribution = attribution_breakdown ();
  }

let reset_stats t =
  let st = t.st in
  Sim.Metrics.reset st.State.metrics;
  Footprint.reset_stats st.State.fp;
  (* a span open across the reset counts only from here on *)
  let now = Sim.Engine.now st.State.engine in
  st.State.io.State.busy_since <- now;
  st.State.wo.State.busy_since <- now

let check t =
  let problems = ref (Fs.check t.fsys) in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* every cache line must sit on a Cached disk segment tagged with it *)
  Seg_cache.iter t.st.State.cache (fun line ->
      if line.Seg_cache.disk_seg >= 0 then begin
        let e = Segusage.get (Fs.seguse t.fsys) line.Seg_cache.disk_seg in
        if e.Segusage.state <> Segusage.Cached then
          complain "cache line for tseg %d: disk seg %d not in Cached state"
            line.Seg_cache.tindex line.Seg_cache.disk_seg;
        if e.Segusage.cache_tag <> line.Seg_cache.tindex then
          complain "cache line for tseg %d: disk seg %d tagged %d" line.Seg_cache.tindex
            line.Seg_cache.disk_seg e.Segusage.cache_tag
      end);
  (* and every Cached segusage entry must be in the directory *)
  Segusage.iter (Fs.seguse t.fsys) (fun seg e ->
      if e.Segusage.state = Segusage.Cached then
        match Seg_cache.find t.st.State.cache e.Segusage.cache_tag with
        | Some line when line.Seg_cache.disk_seg = seg -> ()
        | _ -> complain "Cached segment %d (tag %d) missing from cache directory" seg
                 e.Segusage.cache_tag);
  (* every segment image taken is attached to a line (in the directory
     or in [image_fifo]) or held by a move in flight, and none of those
     is back in the pool *)
  let pool = t.st.State.images in
  let held = ref [] in
  let note line =
    match line.Seg_cache.image with
    | Some image when not (List.memq image !held) ->
        if List.memq image pool.State.free_images then
          complain "cache line for tseg %d: image is in the free image pool"
            line.Seg_cache.tindex;
        held := image :: !held
    | _ -> ()
  in
  Seg_cache.iter t.st.State.cache note;
  Queue.iter note t.st.State.image_fifo;
  let attached = List.length !held + pool.State.moving_images in
  if attached <> pool.State.images_out then
    complain "%d segment images taken, %d attached to lines or held by moves"
      pool.State.images_out attached;
  List.rev !problems
