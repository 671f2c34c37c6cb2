open State

(* The file system's own log traffic crosses the same faultable disk
   and bus models as the service layer's transfers. Transient faults
   are absorbed here with the instance's retry policy; exhaustion
   surfaces as {!State.Io_error} — the EIO a kernel driver would
   return. *)
let rec retry_after st ~what f d attempt backoff =
  if attempt >= st.retry.max_attempts then begin
    Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.io_failures");
    raise
      (Io_error
         (Printf.sprintf "%s: %s (%d attempts)" what (Sim.Fault.descriptor_to_string d) attempt))
  end
  else begin
    Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.retries");
    Sim.Engine.delay backoff;
    match f () with
    | v -> v
    | exception Sim.Fault.Injected d ->
        retry_after st ~what f d (attempt + 1) (Float.min (backoff *. 2.0) st.retry.backoff_cap)
  end

let retried st ~what f =
  match f () with
  | v -> v
  | exception Sim.Fault.Injected d -> retry_after st ~what f d 1 st.retry.backoff_base

(* [retried] around one disk read or write, with no closure unless the
   first attempt faults: most of the log's block traffic (the cleaner's
   single-block reads above all) comes through these. *)
let disk_read_into st ~what ~blk ~count ~dst ~dst_off =
  match st.disk.Lfs.Dev.read_into ~blk ~count ~dst ~dst_off with
  | () -> ()
  | exception Sim.Fault.Injected d ->
      retry_after st ~what
        (fun () -> st.disk.Lfs.Dev.read_into ~blk ~count ~dst ~dst_off)
        d 1 st.retry.backoff_base

let disk_write_from st ~what ~blk ~src ~src_off ~count =
  match st.disk.Lfs.Dev.write_from ~blk ~src ~src_off ~count with
  | () -> ()
  | exception Sim.Fault.Injected d ->
      retry_after st ~what
        (fun () -> st.disk.Lfs.Dev.write_from ~blk ~src ~src_off ~count)
        d 1 st.retry.backoff_base

(* Park on a Fetching line until it can serve blocks [off, off+count):
   fills [dst] and returns true the moment the streaming watermark
   covers the extent (served straight from the in-memory image — the
   cache-disk landing and the rest of the segment are still in flight),
   or returns false once the line left Fetching, in which case the
   caller retakes the normal lookup path. Predicate order is
   load-bearing: the watermark is consulted *before* [failed], because a
   mid-stream fault fails only the not-yet-valid suffix —
   [Service.fail_fetch] keeps the delivered prefix attached so waiters
   below the watermark drain with real data. *)
let rec await_extent st line ~off ~count ~dst ~dst_off =
  match line.Seg_cache.image with
  | Some image when line.Seg_cache.valid_blocks >= off + count ->
      (* a covered extent is served whatever the line's state: Fetching
         mid-stream, Resident (image still attached), or the Partial
         remnant of a failed fetch — the bytes below the watermark are
         real in every case *)
      Device.Blockstore.read_into image ~blk:off ~count ~dst ~dst_off;
      true
  | _ -> (
      match line.Seg_cache.failed with
      | Some msg -> raise (Io_error msg)
      | None ->
          if line.Seg_cache.state <> Seg_cache.Fetching then false
          else begin
            Sim.Condvar.wait line.Seg_cache.ready;
            await_extent st line ~off ~count ~dst ~dst_off
          end)

(* Wait-time bookkeeping shared by the ride-along and miss paths; the
   failure path charges the wait too — the process was blocked right up
   to the error. *)
let timed_wait st series f =
  let t0 = Sim.Engine.now st.engine in
  Fun.protect f ~finally:(fun () ->
      Sim.Metrics.observe
        (Sim.Metrics.histogram st.metrics series)
        (Sim.Engine.now st.engine -. t0))

(* Translate one tertiary extent (within a single tertiary segment) to
   its cached on-disk location, demand-fetching on a miss, and read it
   into [dst] at [dst_off]. *)
let rec tertiary_read st ~blk ~count ~dst ~dst_off =
  let tindex = Addr_space.tindex_of_addr st.aspace blk in
  let off = Addr_space.offset_in_seg st.aspace blk in
  if off + count > seg_blocks st then
    invalid_arg "Block_io: tertiary read crosses a segment boundary";
  (* every tertiary access warms the segment — the idle-readahead
     daemon's signal for what is worth speculating on *)
  Obs.Heat.touch st.heat ~now:(Sim.Engine.now st.engine) tindex;
  match Seg_cache.find st.cache tindex with
  | Some line when line.Seg_cache.state = Seg_cache.Partial ->
      if off + count <= line.Seg_cache.valid_blocks then begin
        (* the failed fetch's delivered prefix covers this extent: a hit
           served from memory, no tertiary traffic *)
        Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.hits");
        Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.partial_serves");
        score_prefetch st line `Used;
        if Obs.Decision.enabled () then
          Obs.Decision.note_segment_access ~now:(Sim.Engine.now st.engine) ~miss:false tindex;
        Seg_cache.touch st.cache line ~now:(Sim.Engine.now st.engine);
        match line.Seg_cache.image with
        | Some image -> Device.Blockstore.read_into image ~blk:off ~count ~dst ~dst_off
        | None ->
            (* a Partial line keeps its image for life; losing it means
               the prefix is gone for good — re-fetch from scratch *)
            Seg_cache.remove st.cache line;
            tertiary_read st ~blk ~count ~dst ~dst_off
      end
      else begin
        (* past the watermark: flip the line back to Fetching and
           re-fetch only the missing tail — [Service.fetch_read] resumes
           the stream at [valid_blocks], and the landing write persists
           prefix + suffix together *)
        Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.misses");
        Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.tail_refetches");
        Sim.Metrics.incr
          ~by:(seg_blocks st - line.Seg_cache.valid_blocks)
          (Sim.Metrics.counter st.metrics "cache.tail_refetch_blocks");
        (* demanding a prefetch's Partial remnant is its use *)
        score_prefetch st line `Used;
        if Obs.Decision.enabled () then
          Obs.Decision.note_segment_access ~now:(Sim.Engine.now st.engine) ~miss:true tindex;
        emit st (Fetch_started tindex);
        line.Seg_cache.failed <- None;
        line.Seg_cache.state <- Seg_cache.Fetching;
        line.Seg_cache.span_id <-
          Sim.Trace.async_begin ~track:"service" ~cat:"lifecycle" "tail-refetch"
            ~args:
              [
                ("tindex", string_of_int tindex);
                ("from_block", string_of_int line.Seg_cache.valid_blocks);
              ];
        line.Seg_cache.ledger <- Sim.Ledger.open_request ~kind:"demand_fetch";
        State.submit st
          (Fetch { line; enqueued = Sim.Engine.now st.engine; is_prefetch = false });
        if
          not
            (timed_wait st "service.first_block_latency_s" (fun () ->
                 await_extent st line ~off ~count ~dst ~dst_off))
        then tertiary_read st ~blk ~count ~dst ~dst_off
      end
  | Some line when line.Seg_cache.state = Seg_cache.Fetching -> (
      (* somebody else's fetch is in flight: ride along (a hint line
         demanded while still in flight is an accurate prefetch) *)
      score_prefetch st line `Used;
      if Obs.Decision.enabled () then
        Obs.Decision.note_segment_access ~now:(Sim.Engine.now st.engine) ~miss:false tindex;
      if
        not
          (timed_wait st "cache.pin_wait_s" (fun () ->
               await_extent st line ~off ~count ~dst ~dst_off))
      then tertiary_read st ~blk ~count ~dst ~dst_off)
  | Some line ->
      Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.hits");
      score_prefetch st line `Used;
      if Obs.Decision.enabled () then
        Obs.Decision.note_segment_access ~now:(Sim.Engine.now st.engine) ~miss:false tindex;
      Seg_cache.pin line;
      Seg_cache.touch st.cache line ~now:(Sim.Engine.now st.engine);
      (match line.Seg_cache.image with
      | Some image ->
          (* recently fetched: the segment image is still in memory,
             no need to go back to the cache disk for it *)
          Device.Blockstore.read_into image ~blk:off ~count ~dst ~dst_off
      | None ->
          disk_read_into st ~what:"cache-line read"
            ~blk:(disk_seg_base st line.Seg_cache.disk_seg + off)
            ~count ~dst ~dst_off);
      Seg_cache.unpin st.cache line
  | None -> (
      Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.misses");
      (* a miss on a recently demoted or evicted segment is the
         observatory's migration-mistake / eviction-regret signal *)
      if Obs.Decision.enabled () then
        Obs.Decision.note_segment_access ~now:(Sim.Engine.now st.engine) ~miss:true tindex;
      (* tell the notification agent the caller is in for a wait *)
      emit st (Fetch_started tindex);
      let line =
        Seg_cache.insert st.cache ~tindex ~disk_seg:(-1) ~state:Seg_cache.Fetching
          ~now:(Sim.Engine.now st.engine)
      in
      line.Seg_cache.span_id <-
        Sim.Trace.async_begin ~track:"service" ~cat:"lifecycle" "demand-fetch"
          ~args:[ ("tindex", string_of_int tindex) ];
      line.Seg_cache.ledger <- Sim.Ledger.open_request ~kind:"demand_fetch";
      State.submit st
        (Fetch { line; enqueued = Sim.Engine.now st.engine; is_prefetch = false });
      (* prefetch hints ride behind the demand fetch, asynchronously *)
      List.iter
        (fun tindex' ->
          if
            tindex' >= 0
            && tindex' < Addr_space.ntsegs st.aspace
            && (Lfs.Segusage.get st.tseg tindex').Lfs.Segusage.state <> Lfs.Segusage.Clean
            && Seg_cache.find st.cache tindex' = None
          then begin
            let line' =
              Seg_cache.insert st.cache ~tindex:tindex' ~disk_seg:(-1)
                ~state:Seg_cache.Fetching ~now:(Sim.Engine.now st.engine)
            in
            line'.Seg_cache.prefetched <- true;
            line'.Seg_cache.span_id <-
              Sim.Trace.async_begin ~track:"service" ~cat:"lifecycle" "prefetch"
                ~args:[ ("tindex", string_of_int tindex') ];
            line'.Seg_cache.ledger <- Sim.Ledger.open_request ~kind:"prefetch";
            State.submit st
              (Fetch { line = line'; enqueued = Sim.Engine.now st.engine; is_prefetch = true })
          end)
        (st.prefetch tindex);
      (* time to first usable block — the streaming fetch's whole point;
         the full-fetch completion latency is observed by the service
         worker in service.demand_fetch_latency_s *)
      if
        not
          (timed_wait st "service.first_block_latency_s" (fun () ->
               await_extent st line ~off ~count ~dst ~dst_off))
      then tertiary_read st ~blk ~count ~dst ~dst_off)

let read_block_into st addr ~dst ~dst_off =
  if Addr_space.is_disk st.aspace addr then
    disk_read_into st ~what:"disk read" ~blk:addr ~count:1 ~dst ~dst_off
  else begin
    let tindex = Addr_space.tindex_of_addr st.aspace addr in
    let off = Addr_space.offset_in_seg st.aspace addr in
    match Seg_cache.find st.cache tindex with
    | Some line
      when line.Seg_cache.state = Seg_cache.Resident
           || line.Seg_cache.state = Seg_cache.Staging
           || line.Seg_cache.state = Seg_cache.Staged_clean ->
        disk_read_into st ~what:"cache-line read"
          ~blk:(disk_seg_base st line.Seg_cache.disk_seg + off)
          ~count:1 ~dst ~dst_off
    | _ ->
        let vol, seg = Addr_space.vol_seg_of_tindex st.aspace tindex in
        let block =
          retried st ~what:"tertiary block read" (fun () ->
              Footprint.read_blocks st.fp ~vol ~seg ~off ~count:1)
        in
        Bytes.blit block 0 dst dst_off (Bytes.length block)
  end

let dev st =
  let bs = st.disk.Lfs.Dev.block_size in
  let read_into ~blk ~count ~dst ~dst_off =
    if Addr_space.is_disk st.aspace blk then
      disk_read_into st ~what:"log read" ~blk ~count ~dst ~dst_off
    else if Addr_space.is_tertiary st.aspace blk then
      (* tertiary reads route through the cache-line machinery, which
         serves from a pinned image or the cache disk *)
      tertiary_read st ~blk ~count ~dst ~dst_off
    else
      invalid_arg
        (Printf.sprintf "Block_io: read of dead-zone address %d" blk)
  in
  let read ~blk ~count =
    let out = Bytes.create (count * bs) in
    read_into ~blk ~count ~dst:out ~dst_off:0;
    out
  in
  let write ~blk ~data =
    if Addr_space.is_disk st.aspace blk then
      retried st ~what:"log write" (fun () -> st.disk.Lfs.Dev.write ~blk ~data)
    else
      invalid_arg
        (Printf.sprintf
           "Block_io: tertiary address %d is not writable through the block map" blk)
  in
  let write_from ~blk ~src ~src_off ~count =
    if Addr_space.is_disk st.aspace blk then
      disk_write_from st ~what:"log write" ~blk ~src ~src_off ~count
    else
      invalid_arg
        (Printf.sprintf
           "Block_io: tertiary address %d is not writable through the block map" blk)
  in
  (* the block map shares pages of disk addresses only, like its
     writes *)
  let on_disk blk =
    if not (Addr_space.is_disk st.aspace blk) then
      invalid_arg (Printf.sprintf "Block_io: tertiary address %d has no disk pages" blk)
  in
  let share_from ~blk ~src ~src_blk ~count =
    on_disk blk;
    retried st ~what:"log write" (fun () -> st.disk.Lfs.Dev.share_from ~blk ~src ~src_blk ~count)
  in
  let share_into ~blk ~count ~dst ~dst_blk =
    on_disk blk;
    retried st ~what:"log read" (fun () -> st.disk.Lfs.Dev.share_into ~blk ~count ~dst ~dst_blk)
  in
  {
    Lfs.Dev.nblocks = Addr_space.total_blocks st.aspace;
    block_size = bs;
    read;
    write;
    read_into;
    write_from;
    share_from;
    share_into;
  }
