open State

let now st = Sim.Engine.now st.engine

(* ---------- transfer phases ---------- *)

(* Every fetch and write-out is two phases on two different devices:

     fetch:     tertiary read  (jukebox drive)  ->  cache-disk write
     write-out: cache-disk read                 ->  tertiary write

   The phases are instrumented separately so the Table 4 breakdown can
   also report how much of the busy time was overlapped: one histogram
   observation per phase plus one per busy span, the wall time during
   which at least one phase was in flight (overlap factor = phase sum /
   span sum, [Hl.stats]). Write-out phases also feed a write-out-only
   twin, [writeout.*]: overlap 1.0 when a segment's staging read and
   tertiary write serialize, toward 2.0 when they overlap. *)
let observe st series x = Sim.Metrics.observe (Sim.Metrics.histogram st.metrics series) x

let busy_begin st b =
  if b.active = 0 then b.busy_since <- now st;
  b.active <- b.active + 1

let busy_end st b ~phase_series ~span_series dt =
  observe st phase_series dt;
  b.active <- b.active - 1;
  if b.active = 0 then observe st span_series (now st -. b.busy_since)

(* Bracket one device phase with the busy-time accounting, on the
   failure path too — the device was busy right up to the fault. *)
let phased ?(writeout = false) st phase f =
  let t0 = now st in
  busy_begin st st.io;
  if writeout then busy_begin st st.wo;
  Fun.protect f ~finally:(fun () ->
      let dt = now st -. t0 in
      let io_series, wo_series =
        match phase with
        | `Tertiary -> ("io.tertiary_phase_s", "writeout.tertiary_phase_s")
        | `Disk -> ("io.disk_phase_s", "writeout.disk_phase_s")
      in
      if writeout then
        busy_end st st.wo ~phase_series:wo_series ~span_series:"writeout.busy_s" dt;
      busy_end st st.io ~phase_series:io_series ~span_series:"io.busy_s" dt)

(* End-of-medium: the staged segment must move to another volume, which
   changes every block's tertiary address; re-aim the live pointers and
   re-key the cache line (paper §6.3's "the last segment is re-written
   onto the next volume"). *)
let rehome st line =
  let fsys = fs st in
  let old_tindex = line.Seg_cache.tindex in
  let manifest = Option.value ~default:[] (Hashtbl.find_opt st.manifests old_tindex) in
  let new_tindex = next_tseg st in
  let old_base = Addr_space.seg_base st.aspace old_tindex in
  let new_base = Addr_space.seg_base st.aspace new_tindex in
  let moved =
    List.filter_map
      (fun entry ->
        match entry with
        | Staged_block sb -> (
            match Lfs.Fs.get_inode fsys sb.sb_inum with
            | exception Not_found -> None
            | ino ->
                (* a block dirtied since staging will be re-written to the
                   disk log by the next flush; its staged copy is dead *)
                if
                  Lfs.Fs.lookup_addr fsys ino sb.sb_bkey = sb.sb_taddr
                  && not
                       (Lfs.Bcache.is_dirty (Lfs.Fs.bcache fsys)
                          (Lfs.Bcache.key sb.sb_inum sb.sb_bkey))
                then begin
                  let new_addr = new_base + (sb.sb_taddr - old_base) in
                  Lfs.Fs.repoint fsys ino sb.sb_bkey new_addr;
                  Some (Staged_block { sb with sb_taddr = new_addr })
                end
                else None)
        | Staged_inode_block { si_taddr; si_inums } ->
            let new_addr = new_base + (si_taddr - old_base) in
            let still =
              List.filter
                (fun inum ->
                  let e = Lfs.Imap.get (Lfs.Fs.imap fsys) inum in
                  if e.Lfs.Imap.addr = si_taddr then begin
                    Lfs.Fs.account fsys ~addr:si_taddr (-Lfs.Inode.isize);
                    Lfs.Fs.account fsys ~addr:new_addr Lfs.Inode.isize;
                    Lfs.Imap.set_addr (Lfs.Fs.imap fsys) inum new_addr;
                    true
                  end
                  else false)
                si_inums
            in
            if still = [] then None
            else Some (Staged_inode_block { si_taddr = new_addr; si_inums = still }))
      manifest
  in
  Hashtbl.remove st.manifests old_tindex;
  Hashtbl.replace st.manifests new_tindex moved;
  Lfs.Segusage.set_state st.tseg old_tindex Lfs.Segusage.Clean;
  Seg_cache.retag st.cache line new_tindex;
  (* a torn prefix stays behind on the old segment *)
  line.Seg_cache.media_blocks <- 0;
  if line.Seg_cache.disk_seg >= 0 then
    Lfs.Segusage.set_cache_tag (Lfs.Fs.seguse fsys) line.Seg_cache.disk_seg new_tindex;
  Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.rehomes")

(* Choose the cheapest live copy of a tertiary segment: a replica on a
   currently-loaded volume beats the primary on an unloaded one
   (paper §5.4's "closest copy"). *)
let pick_source st tindex =
  let candidates =
    tindex :: Option.value ~default:[] (Hashtbl.find_opt st.replicas tindex)
  in
  let live t =
    (Lfs.Segusage.get st.tseg t).Lfs.Segusage.state <> Lfs.Segusage.Clean || t = tindex
  in
  let candidates = List.filter live candidates in
  let loaded t =
    Footprint.volume_loaded st.fp (fst (Addr_space.vol_seg_of_tindex st.aspace t))
  in
  match List.find_opt loaded candidates with
  | Some t -> t
  | None -> ( match candidates with t :: _ -> t | [] -> tindex)

type fetch_ctx = { f_line : Seg_cache.line; f_urgent : bool; f_enqueued : float }

(* One write-out in flight. The disk side shares the staged segment's
   pages into [w_image] front to back, advancing the [w_read] watermark
   and broadcasting [w_avail]; the tertiary side's per-chunk await
   blocks until the watermark covers the chunk it is about to share
   onto the media. How much of the tertiary segment is already there
   lives on the line ([media_blocks]), not here, so a retry — or a
   later ticket after this one failed — resumes instead of rewriting. A
   permanent disk-side failure parks in [w_failed] — the tertiary side
   surfaces it, so the write-out fails exactly once, from the worker
   that owns its ledger. *)
type wo_ctx = {
  w_line : Seg_cache.line;
  w_status : writeout_status ref;
  w_done : Sim.Condvar.t;
  w_image : Device.Blockstore.t;
  mutable w_read : int;  (** blocks of [w_image] holding the segment *)
  mutable w_halves : int;  (** halves not yet over; see [wo_settle] *)
  w_avail : Sim.Condvar.t;
  mutable w_failed : string option;
  w_overlap : bool;
      (** the disk read runs on the cache-disk worker, concurrently with
          the tertiary write (streaming write-out); otherwise the whole
          image is read before the tertiary write starts — by the
          cache-disk worker before the job is queued for a drive
          (Pipelined), or inline by the tertiary worker (Serial) *)
}

(* Readers of a just-fetched segment are served from its in-memory
   image instead of re-reading the cache disk the worker just wrote —
   single-block reads against a disk whose arm is also landing fetched
   segments would pay a seek + rotation each. Only the newest
   [pipeline width] images stay attached (the double buffers of §6.7);
   beyond that the disk copy serves and the image goes back. *)
let attach_image st line =
  Queue.add line st.image_fifo;
  let depth = 2 * (max 1 (Footprint.ndrives st.fp) + 1) in
  while Queue.length st.image_fifo > depth do
    release_image st (Queue.pop st.image_fifo)
  done

(* One half of a write-out — its staging read or its tertiary write —
   finished, failed or will never run. Until both are, a late staging
   read may share into the image, or a chunk in transfer from it. *)
let wo_settle st ctx =
  ctx.w_halves <- ctx.w_halves - 1;
  if ctx.w_halves = 0 then give_image ~moving:true st ctx.w_image

(* ---------- fault handling ---------- *)

(* Run one device phase under the retry policy: an injected fault is
   retried with capped exponential backoff in sim-time, bounded by both
   the attempt cap and a per-request deadline on the engine clock.
   Permanent faults pass through here too — the jukebox excludes dead
   drives from arbitration, so retrying a failed tertiary phase lands on
   a sibling drive when one is alive (failover), and exhausts quickly
   into [Error] when none is. *)
let with_retries st ~what f =
  let deadline = now st +. st.retry.request_timeout in
  let rec go attempt backoff =
    match f () with
    | v -> Ok v
    | exception Sim.Fault.Injected d ->
        let msg = Sim.Fault.descriptor_to_string d in
        Hl_log.Log.debug (fun m -> m "%s: %s (attempt %d)" what msg attempt);
        if attempt >= st.retry.max_attempts then begin
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.io_failures");
          Error (Printf.sprintf "%s: %s (%d attempts)" what msg attempt)
        end
        else if now st +. backoff > deadline then begin
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.timeouts");
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.io_failures");
          Error (Printf.sprintf "%s: %s (request timeout)" what msg)
        end
        else begin
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.retries");
          Sim.Trace.instant ~track:"service" ~cat:"fault" "retry"
            ~args:[ ("what", what); ("attempt", string_of_int attempt) ];
          (* backoff is queueing blame: the request is parked, not moving *)
          Sim.Ledger.charged_delay Sim.Ledger.Queue_wait backoff;
          go (attempt + 1) (Float.min (backoff *. 2.0) st.retry.backoff_cap)
        end
  in
  go 1 st.retry.backoff_base

(* A fetch that exhausted its retries. The line must not poison the
   cache: publish the reason and wake the waiters — they see [failed]
   and surface {!State.Io_error}.

   A streaming fetch may already have delivered a valid prefix into the
   line's image before the fault struck. That prefix is real data that
   crossed the tertiary bus; instead of discarding it, keep the line in
   the directory as [Partial]: the disk segment goes back to the clean
   pool (the prefix lives in memory), waiters and later readers inside
   the watermark are served from it, and a read past the watermark
   triggers a tail-only re-fetch (see {!Block_io.tertiary_read}). With
   nothing delivered the line leaves the directory and its image goes
   back — a later access re-fetches from scratch. *)
let fail_fetch st line msg =
  Hl_log.Log.info (fun m -> m "fetch of tseg %d failed: %s" line.Seg_cache.tindex msg);
  line.Seg_cache.failed <- Some msg;
  Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.fetch_failures");
  Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id ~args:[ ("failed", msg) ];
  line.Seg_cache.span_id <- -1;
  Sim.Ledger.close line.Seg_cache.ledger;
  line.Seg_cache.ledger <- Sim.Ledger.none;
  if line.Seg_cache.disk_seg >= 0 then
    Lfs.Fs.release_segment (fs st) line.Seg_cache.disk_seg;
  if
    line.Seg_cache.valid_blocks > 0
    && line.Seg_cache.state = Seg_cache.Fetching
    && not st.stop_service
  then begin
    (* a prefetched Partial line is scored later, when it is used,
       dropped or evicted *)
    line.Seg_cache.disk_seg <- -1;
    line.Seg_cache.state <- Seg_cache.Partial;
    Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.partial_lines")
  end
  else begin
    score_prefetch st line `Failed;
    Seg_cache.remove st.cache line;
    (* with a prefix (the service is stopping), parked waiters below the
       watermark still drain from the image until [image_fifo] turns *)
    if line.Seg_cache.valid_blocks > 0 then attach_image st line else release_image st line
  end;
  Sim.Condvar.broadcast line.Seg_cache.ready;
  note_progress st

(* Settle a write-out ticket as failed: the staged line keeps the only
   copy (Staging lines are never evictable), so nothing is lost — the
   ticket reports [Failed] and the requester decides. Idempotent: an
   overlapped write-out lives in two work queues at once, so the
   shutdown drain can reach the same one twice. *)
let fail_ticket st line status done_cv msg =
  match !status with
  | Failed _ -> ()
  | _ ->
      Hl_log.Log.info (fun m -> m "write-out of tseg %d failed: %s" line.Seg_cache.tindex msg);
      Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.writeout_failures");
      status := Failed msg;
      Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id ~args:[ ("failed", msg) ];
      line.Seg_cache.span_id <- -1;
      Sim.Ledger.close line.Seg_cache.ledger;
      line.Seg_cache.ledger <- Sim.Ledger.none;
      note_progress st;
      Sim.Condvar.broadcast done_cv

(* A write-out that exhausted its retries. Always unsticks the stream
   partner first — a tertiary worker parked on [w_avail] must see the
   failure and leave its await. *)
let fail_writeout st ctx msg =
  if ctx.w_failed = None then ctx.w_failed <- Some msg;
  Sim.Condvar.broadcast ctx.w_avail;
  fail_ticket st ctx.w_line ctx.w_status ctx.w_done msg

(* A request that never reached a worker (shutdown drain). *)
let fail_request st req msg =
  match req with
  | Fetch { line; _ } -> fail_fetch st line msg
  | Writeout { line; status; done_cv; _ } -> fail_ticket st line status done_cv msg
  | Progress -> ()

(* ---------- fetch ---------- *)

(* Fetch phase A (tertiary worker): read the segment from the cheapest
   copy into the line's image, chunk by chunk, each chunk's volume
   pages shared into the image at their segment offsets — no byte is
   copied. The copy is re-chosen on every retry, so a replica on a
   healthy volume can stand in for a primary behind a dead drive.

   The [valid_blocks] watermark is what waiters see. A streaming fetch
   publishes it as each chunk crosses the bus, broadcasting [ready] so a
   waiter whose block just became valid unblocks at once — the
   cache-disk landing and the rest of the segment are off its critical
   path. A blocking fetch is the same transfer with the watermark
   published only at landing ({!fetch_write}). The stream starts at the
   published watermark: zero for a fresh fetch, partway through for the
   tail re-fetch of a Partial line or a retry after a mid-stream fault —
   the delivered prefix is never re-read, and since segment data is
   deterministic (replicas are copies) it never regresses. *)
let fetch_read st ctx =
  let line = ctx.f_line in
  Sim.Trace.async_instant line.Seg_cache.span_id ~args:[ ("phase", "tertiary-read") ];
  Sim.Ledger.with_active line.Seg_cache.ledger @@ fun () ->
  with_retries st ~what:"fetch:tertiary-read" (fun () ->
      let source = pick_source st line.Seg_cache.tindex in
      Hl_log.Log.debug (fun m ->
          m "fetch tseg %d (from copy %d) -> disk seg %d" line.Seg_cache.tindex source
            line.Seg_cache.disk_seg);
      let vol, seg = Addr_space.vol_seg_of_tindex st.aspace source in
      phased st `Tertiary (fun () ->
          Sim.Trace.span ~cat:"service" "fetch:tertiary-read"
            ~args:
              [ ("tindex", string_of_int line.Seg_cache.tindex); ("vol", string_of_int vol) ]
            (fun () ->
              let image =
                match line.Seg_cache.image with
                | Some img -> img (* retry: keep image and watermark *)
                | None ->
                    let img = take_image st in
                    line.Seg_cache.image <- Some img;
                    img
              in
              let start = line.Seg_cache.valid_blocks in
              if start < seg_blocks st then
                Footprint.read_seg_stream_into st.fp ~vol ~seg ~chunk:st.stream_chunk_blocks
                  ~off:start ~dst:image (fun ~off ~blocks ->
                    if Obs.Health.enabled () then
                      Obs.Health.worker_beat (Sim.Engine.current_name st.engine);
                    if st.streaming_fetch && off <= line.Seg_cache.valid_blocks then begin
                      Sim.Ledger.mark_first_block line.Seg_cache.ledger;
                      line.Seg_cache.valid_blocks <-
                        max line.Seg_cache.valid_blocks (off + blocks);
                      Sim.Condvar.broadcast line.Seg_cache.ready
                    end);
              image)))

(* Fetch phase B (cache-disk side): land the image in the cache line
   and publish the whole segment: a timed disk write sharing the pages
   the tertiary read delivered, whatever has happened to the volume. *)
let fetch_write st ctx image =
  let line = ctx.f_line in
  match
    (* the whole landing phase is cache-disk blame, whatever the disk
       and bus instrumentation points would call it *)
    Sim.Ledger.with_active ~redirect:Sim.Ledger.Cache_disk_write line.Seg_cache.ledger
      (fun () ->
        with_retries st ~what:"fetch:disk-write" (fun () ->
            phased st `Disk (fun () ->
                Sim.Trace.span ~cat:"service" "fetch:disk-write"
                  ~args:[ ("tindex", string_of_int line.Seg_cache.tindex) ]
                  (fun () ->
                    st.disk.Lfs.Dev.share_from
                      ~blk:(disk_seg_base st line.Seg_cache.disk_seg)
                      ~src:image ~src_blk:0 ~count:(seg_blocks st)))))
  with
  | Error msg -> fail_fetch st line msg
  | Ok () ->
      attach_image st line;
      line.Seg_cache.state <- Seg_cache.Resident;
      line.Seg_cache.valid_blocks <- seg_blocks st;
      line.Seg_cache.fetched_at <- now st;
      Seg_cache.touch st.cache line ~now:(now st);
      (* full-fetch completion latency — the streaming win shows up in
         service.first_block_latency_s (observed at the waiter), not
         here: the whole segment still costs the same transfer time *)
      if ctx.f_urgent then
        Sim.Metrics.observe
          (Sim.Metrics.histogram st.metrics "service.demand_fetch_latency_s")
          (now st -. ctx.f_enqueued);
      Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id;
      line.Seg_cache.span_id <- -1;
      (* blocking fetches deliver everything at once; idempotent for
         streaming ones, which marked at the first chunk *)
      Sim.Ledger.mark_first_block line.Seg_cache.ledger;
      Sim.Ledger.close line.Seg_cache.ledger;
      line.Seg_cache.ledger <- Sim.Ledger.none;
      Sim.Condvar.broadcast line.Seg_cache.ready;
      (* the line is evictable now: wake allocation waiters *)
      note_progress st;
      emit st (Fetch_landed line.Seg_cache.tindex)

(* ---------- write-out ---------- *)

(* Write-out, disk side: lift the staged segment off the cache disk
   into [w_image] (timed reads that share its pages), advancing [w_read]
   and broadcasting [w_avail] after each piece. Overlapped, it runs on
   the cache-disk worker in [stream_chunk_blocks] pieces with no
   request ledger active — the tertiary side owns the write-out's
   ledger end to end, so this read charges nobody (its effect shows up
   as the stalls it removes). Otherwise it is one whole-segment read
   charged to the write-out, finished before the tertiary write starts.
   A retry resumes from the watermark. *)
let writeout_stage st ctx =
  let line = ctx.w_line in
  Sim.Trace.async_instant line.Seg_cache.span_id ~args:[ ("phase", "disk-read") ];
  let total = seg_blocks st in
  let chunk = if ctx.w_overlap then max 1 st.stream_chunk_blocks else total in
  let ledger = if ctx.w_overlap then Sim.Ledger.none else line.Seg_cache.ledger in
  match
    Sim.Ledger.with_active ledger (fun () ->
        with_retries st ~what:"writeout:disk-read" (fun () ->
            phased ~writeout:true st `Disk (fun () ->
                Sim.Trace.span ~cat:"service" "writeout:disk-read"
                  ~args:[ ("tindex", string_of_int line.Seg_cache.tindex) ]
                  (fun () ->
                    let base = disk_seg_base st line.Seg_cache.disk_seg in
                    while ctx.w_read < total && ctx.w_failed = None do
                      let off = ctx.w_read in
                      let n = min chunk (total - off) in
                      st.disk.Lfs.Dev.share_into ~blk:(base + off) ~count:n ~dst:ctx.w_image
                        ~dst_blk:off;
                      ctx.w_read <- off + n;
                      Sim.Condvar.broadcast ctx.w_avail
                    done))))
  with
  | Ok () -> wo_settle st ctx
  | Error msg ->
      (* don't settle the ticket from here: the tertiary side owns the
         write-out and surfaces the failure *)
      if ctx.w_failed = None then ctx.w_failed <- Some msg;
      Sim.Condvar.broadcast ctx.w_avail;
      wo_settle st ctx

(* Write-out completion: publish the staged line as clean, settle the
   ticket, close the books. *)
let writeout_done st ctx =
  let line = ctx.w_line in
  line.Seg_cache.state <- Seg_cache.Staged_clean;
  Sim.Metrics.incr (Sim.Metrics.counter st.metrics "service.writeouts");
  (* the manifest existed for end-of-medium re-homing; the copy is
     safe now *)
  Hashtbl.remove st.manifests line.Seg_cache.tindex;
  (match !(ctx.w_status) with Rehomed _ -> () | _ -> ctx.w_status := Done);
  Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id;
  line.Seg_cache.span_id <- -1;
  Sim.Ledger.close line.Seg_cache.ledger;
  line.Seg_cache.ledger <- Sim.Ledger.none;
  emit st (Writeout_done line.Seg_cache.tindex);
  note_progress st;
  Sim.Condvar.broadcast ctx.w_done

(* Local abort of a tertiary write: the disk-side producer failed
   permanently, so the awaited watermark will never advance. *)
exception Stream_aborted of string

(* Write-out, tertiary side: the jukebox write's per-chunk await parks
   on the [w_read] watermark, so the media transfer chases the staging
   read through the segment with whatever lead the slower device allows
   (not overlapped, the image is already whole and the await never
   parks). Every attempt starts at the line's [media_blocks] watermark:
   a retry after a media fault, or a later ticket after this one failed
   for good, resumes there, so no block is ever written twice — which is
   what lets WORM volumes take the same path. End-of-medium re-homes
   onto a new tertiary segment and restarts there: the image is
   address-free (pointers live in the fs maps), so it and the read
   watermark carry over. *)
let writeout_write st ctx =
  let line = ctx.w_line in
  let await ~off ~blocks =
    while ctx.w_read < off + blocks && ctx.w_failed = None do
      (* the stall is part of the tertiary phase: the drive is claimed
         and waiting on the producer *)
      Sim.Condvar.wait ~charge:Sim.Ledger.Queue_wait ctx.w_avail
    done;
    match ctx.w_failed with Some msg -> raise (Stream_aborted msg) | None -> ()
  in
  let rec attempt () =
    let vol, seg = Addr_space.vol_seg_of_tindex st.aspace line.Seg_cache.tindex in
    match
      with_retries st ~what:"writeout:tertiary-write" (fun () ->
          phased ~writeout:true st `Tertiary (fun () ->
              Sim.Trace.span ~cat:"service" "writeout:tertiary-write"
                ~args:
                  [ ("tindex", string_of_int line.Seg_cache.tindex); ("vol", string_of_int vol) ]
                (fun () ->
                  Footprint.write_seg_stream_from st.fp ~vol ~seg
                    ~chunk:(max 1 st.stream_chunk_blocks) ~off:line.Seg_cache.media_blocks
                    ~src:ctx.w_image ~src_blk:0 ~await (fun ~off ~blocks ->
                      if Obs.Health.enabled () then
                        Obs.Health.worker_beat (Sim.Engine.current_name st.engine);
                      line.Seg_cache.media_blocks <- off + blocks;
                      emit st
                        (Writeout_chunk
                           { tindex = line.Seg_cache.tindex; written = off + blocks })))))
    with
    | exception Stream_aborted msg -> Error msg
    | Error _ as e -> e
    | Ok Footprint.Written ->
        writeout_done st ctx;
        Ok ()
    | Ok Footprint.End_of_medium ->
        Hl_log.Log.info (fun m ->
            m "end of medium: re-homing staged segment (was tseg %d)" line.Seg_cache.tindex);
        rehome st line;
        Sim.Trace.async_instant line.Seg_cache.span_id
          ~args:[ ("phase", "rehome"); ("new_tindex", string_of_int line.Seg_cache.tindex) ];
        ctx.w_status := Rehomed line.Seg_cache.tindex;
        attempt ()
  in
  (* everything from here to the last block on the media is the
     write-out's tertiary phase: one category, whatever the overlap *)
  Sim.Ledger.with_active ~redirect:Sim.Ledger.Tertiary_write line.Seg_cache.ledger attempt

(* ---------- work queues ---------- *)

(* Tertiary-side work queues, one per volume. Demand-fetch reads
   preempt prefetch reads, which preempt write-out writes; within a
   class, oldest first (the sequence number). Serial keeps the paper's
   one-request-at-a-time order instead: demand fetches and write-outs
   share one first-come class, ahead of prefetches. A worker *claims* the
   volume it serves so a second worker never queues up behind the same
   drive while another volume's work — and its drive — sit idle; the
   per-volume write-out queues also mean a worker drains one volume's
   write-out batch back-to-back, amortizing robot swaps. Queue entries
   carry their push time, so the pop can charge the interval to the
   request's ledger as [Queue_wait]. *)
type tert_job = T_fetch of fetch_ctx | T_writeout of wo_ctx

type vol_work = {
  vw_urgent : (int * float * fetch_ctx) Queue.t;
  vw_prefetch : (int * float * fetch_ctx) Queue.t;
  vw_wo : (int * float * wo_ctx) Queue.t;
  mutable vw_claimed : bool;
  vw_depth_name : string; (* "tertq.vol<N>.depth", formatted once *)
  mutable vw_depth_gauge : Sim.Metrics.gauge option; (* resolved on first use *)
}

type tertq = {
  tq_mode : io_mode; (* the pick order of [tq_take] *)
  tq_vols : (int, vol_work) Hashtbl.t;
  mutable tq_seq : int;
  tq_cv : Sim.Condvar.t;
}

let tq_create tq_mode =
  { tq_mode; tq_vols = Hashtbl.create 8; tq_seq = 0; tq_cv = Sim.Condvar.create () }

let tq_vol q vol =
  match Hashtbl.find_opt q.tq_vols vol with
  | Some vw -> vw
  | None ->
      let vw =
        {
          vw_urgent = Queue.create ();
          vw_prefetch = Queue.create ();
          vw_wo = Queue.create ();
          vw_claimed = false;
          vw_depth_name = Printf.sprintf "tertq.vol%d.depth" vol;
          vw_depth_gauge = None;
        }
      in
      Hashtbl.replace q.tq_vols vol vw;
      vw

(* queue under the primary copy's volume; a replica on a loaded volume
   may still be picked at read time (pick_source), which only makes the
   job cheaper than its queue slot assumed *)
let tindex_vol st tindex = fst (Addr_space.vol_seg_of_tindex st.aspace tindex)

(* Per-volume queue depth, sampled at every push and pop: a gauge (with
   high-water mark) in the registry and a counter series in the trace. *)
let tq_note_depth st q vol =
  let vw = tq_vol q vol in
  let depth =
    Queue.length vw.vw_urgent + Queue.length vw.vw_prefetch + Queue.length vw.vw_wo
  in
  (* name formatted once per volume, gauge resolved once per volume:
     this runs on every push and pop *)
  let g =
    match vw.vw_depth_gauge with
    | Some g -> g
    | None ->
        let g = Sim.Metrics.gauge st.metrics vw.vw_depth_name in
        vw.vw_depth_gauge <- Some g;
        g
  in
  Sim.Metrics.set g (float_of_int depth);
  if Sim.Trace.enabled () then
    Sim.Trace.counter ~track:"tertq" ~cat:"service" vw.vw_depth_name (float_of_int depth)

(* Withdraw a speculative fetch that never ran — a queued idle hint
   preempted by real work, or a prefetch that could not get a cache
   line. Its ledger is discarded, not folded. A reader that piggybacked
   on the Fetching line re-checks and issues a demand fetch. *)
let drop_hint st line =
  Sim.Trace.async_end ~track:"service" line.Seg_cache.span_id
    ~args:[ ((if line.Seg_cache.idle_hint then "preempted" else "dropped"), "1") ];
  line.Seg_cache.span_id <- -1;
  Sim.Ledger.drop line.Seg_cache.ledger;
  line.Seg_cache.ledger <- Sim.Ledger.none;
  if line.Seg_cache.disk_seg >= 0 then Lfs.Fs.release_segment (fs st) line.Seg_cache.disk_seg;
  Seg_cache.remove st.cache line;
  release_image st line;
  score_prefetch st line `Dropped;
  Sim.Condvar.broadcast line.Seg_cache.ready

(* Idle-readahead preemption: demand or write-out work arriving kicks
   every still-queued idle prefetch out of the tertiary queues — the
   daemon only speculates on drive time nobody else wants, and a queued
   hint already holds a cache line and a disk segment that real work may
   need. In-flight idle fetches (already claimed by a worker) finish on
   their own. *)
let preempt_idle st q =
  Hashtbl.iter
    (fun vol vw ->
      if
        Queue.fold
          (fun any (_, _, c) -> any || c.f_line.Seg_cache.idle_hint)
          false vw.vw_prefetch
      then begin
        let keep = Queue.create () in
        Queue.iter
          (fun ((_, _, ctx) as entry) ->
            if ctx.f_line.Seg_cache.idle_hint then drop_hint st ctx.f_line
            else Queue.add entry keep)
          vw.vw_prefetch;
        Queue.clear vw.vw_prefetch;
        Queue.transfer keep vw.vw_prefetch;
        tq_note_depth st q vol
      end)
    q.tq_vols

let tq_next_seq q =
  let seq = q.tq_seq in
  q.tq_seq <- seq + 1;
  seq

let tq_push_fetch st q ctx =
  if ctx.f_urgent then preempt_idle st q;
  let vol = tindex_vol st ctx.f_line.Seg_cache.tindex in
  let vw = tq_vol q vol in
  Queue.add (tq_next_seq q, now st, ctx) (if ctx.f_urgent then vw.vw_urgent else vw.vw_prefetch);
  tq_note_depth st q vol;
  Sim.Condvar.broadcast q.tq_cv

let tq_push_writeout st q ctx =
  preempt_idle st q;
  let vol = tindex_vol st ctx.w_line.Seg_cache.tindex in
  Queue.add (tq_next_seq q, now st, ctx) (tq_vol q vol).vw_wo;
  tq_note_depth st q vol;
  Sim.Condvar.broadcast q.tq_cv

(* Pick work from an unclaimed volume. Pipelined: any volume's demand
   fetch beats any prefetch beats any write-out; fetch classes go
   oldest-first across volumes, write-outs prefer a volume already in a
   drive and then the deepest batch. Serial: the oldest demand fetch or
   write-out, then the oldest prefetch. Returns the claimed volume with
   the job. *)
let tq_take st q =
  (* (seq, vol) of the oldest head of [sel] on an unclaimed volume *)
  let oldest sel =
    let best = ref None in
    Hashtbl.iter
      (fun vol vw ->
        if not vw.vw_claimed then
          match Queue.peek_opt (sel vw) with
          | Some (seq, _, _) -> (
              match !best with
              | Some (s, _) when s <= seq -> ()
              | _ -> best := Some (seq, vol))
          | None -> ())
      q.tq_vols;
    !best
  in
  let pop_fetch sel vol =
    let _, pushed, ctx = Queue.pop (sel (Hashtbl.find q.tq_vols vol)) in
    Sim.Ledger.charge_since ctx.f_line.Seg_cache.ledger Sim.Ledger.Queue_wait pushed;
    Some (vol, T_fetch ctx)
  in
  let pop_writeout vol =
    let _, pushed, ctx = Queue.pop (Hashtbl.find q.tq_vols vol).vw_wo in
    Sim.Ledger.charge_since ctx.w_line.Seg_cache.ledger Sim.Ledger.Queue_wait pushed;
    Some (vol, T_writeout ctx)
  in
  let urgent vw = vw.vw_urgent and prefetch vw = vw.vw_prefetch in
  let batched_writeout () =
    let best = ref None in
    Hashtbl.iter
      (fun vol vw ->
        if (not vw.vw_claimed) && not (Queue.is_empty vw.vw_wo) then begin
          let score =
            (if Footprint.volume_loaded st.fp vol then 1_000_000 else 0)
            + Queue.length vw.vw_wo
          in
          match !best with
          | Some (s, _) when s >= score -> ()
          | _ -> best := Some (score, vol)
        end)
      q.tq_vols;
    Option.bind !best (fun (_, vol) -> pop_writeout vol)
  in
  let prefetch_or k = match oldest prefetch with Some (_, vol) -> pop_fetch prefetch vol | None -> k () in
  match q.tq_mode with
  | Pipelined -> (
      match oldest urgent with
      | Some (_, vol) -> pop_fetch urgent vol
      | None -> prefetch_or batched_writeout)
  | Serial -> (
      match (oldest urgent, oldest (fun vw -> vw.vw_wo)) with
      | Some (f, vol), Some (w, _) when f < w -> pop_fetch urgent vol
      | Some (_, vol), None -> pop_fetch urgent vol
      | _, Some (_, vol) -> pop_writeout vol
      | None, None -> prefetch_or (fun () -> None))

let rec tq_pop st q =
  if st.stop_service then None
  else
    match tq_take st q with
    | Some (vol, job) ->
        (tq_vol q vol).vw_claimed <- true;
        tq_note_depth st q vol;
        Some (vol, job)
    | None ->
        (* nothing to do: give the idle-readahead daemon a shot at the
           drive this worker is about to park *)
        Sim.Condvar.broadcast st.idle_kick;
        Sim.Condvar.wait q.tq_cv;
        tq_pop st q

let tq_release q vol =
  (tq_vol q vol).vw_claimed <- false;
  (* the volume may hold queued work only this claim was blocking *)
  Sim.Condvar.broadcast q.tq_cv

(* Cache-disk work queue: completing a demand fetch beats everything
   else; prefetch landings and write-out staging reads ride behind. *)
type disk_job = D_land of fetch_ctx * Device.Blockstore.t | D_stage of wo_ctx

type diskq = {
  dq_urgent : (float * disk_job) Queue.t;
  dq_normal : (float * disk_job) Queue.t;
  dq_cv : Sim.Condvar.t;
}

let dq_create () =
  { dq_urgent = Queue.create (); dq_normal = Queue.create (); dq_cv = Sim.Condvar.create () }

let dq_note_depth st q =
  let depth = Queue.length q.dq_urgent + Queue.length q.dq_normal in
  Sim.Metrics.set (Sim.Metrics.gauge st.metrics "diskq.depth") (float_of_int depth);
  if Sim.Trace.enabled () then
    Sim.Trace.counter ~track:"diskq" ~cat:"service" "diskq.depth" (float_of_int depth)

let dq_push st q ~urgent job =
  (if urgent then Queue.add (now st, job) q.dq_urgent else Queue.add (now st, job) q.dq_normal);
  dq_note_depth st q;
  Sim.Condvar.signal q.dq_cv

let dq_job_ledger = function
  | D_land (ctx, _) -> ctx.f_line.Seg_cache.ledger
  | D_stage ctx when ctx.w_overlap ->
      (* the tertiary side owns an overlapped write-out's ledger and is
         queued concurrently: charging the disk queue's wait here would
         double-bill the same wall-clock interval *)
      Sim.Ledger.none
  | D_stage ctx -> ctx.w_line.Seg_cache.ledger

let rec dq_pop st q =
  if st.stop_service then None
  else
    let charge (pushed, job) =
      Sim.Ledger.charge_since (dq_job_ledger job) Sim.Ledger.Queue_wait pushed;
      dq_note_depth st q;
      Some job
    in
    match Queue.take_opt q.dq_urgent with
    | Some e -> charge e
    | None -> (
        match Queue.take_opt q.dq_normal with
        | Some e -> charge e
        | None ->
            Sim.Condvar.wait q.dq_cv;
            dq_pop st q)

(* ---------- idle readahead ---------- *)

(* Cost-aware idle readahead: a tertiary worker about to park kicks
   this daemon ([State.t.idle_kick]), which — when enabled and only
   when no real work is queued anywhere — speculatively fetches the
   warmest uncached segment living on a currently-loaded volume
   ({!Obs.Heat} fed by every tertiary access). Loaded volumes only: the
   speculation costs idle drive time, never a robot swap. One hint per
   kick keeps the daemon self-pacing — the next kick arrives when a
   worker runs dry again — and any demand or write-out arrival sweeps
   still-queued hints back out ([preempt_idle]). *)
let spawn_idle_readahead st tq =
  Sim.Engine.spawn st.engine ~name:"hl-idle-ra" (fun () ->
      let queues_busy () =
        Hashtbl.fold
          (fun _ vw busy ->
            busy
            || not (Queue.is_empty vw.vw_urgent)
            || not (Queue.is_empty vw.vw_prefetch)
            || not (Queue.is_empty vw.vw_wo))
          tq.tq_vols false
      in
      let try_issue () =
        if
          st.idle_readahead
          && (not (queues_busy ()))
          && Seg_cache.length st.cache < Seg_cache.max_lines st.cache
        then begin
          let tnow = now st in
          let best = ref None in
          Lfs.Segusage.iter st.tseg (fun tindex e ->
              if
                e.Lfs.Segusage.state <> Lfs.Segusage.Clean
                && Seg_cache.find st.cache tindex = None
                && Footprint.volume_loaded st.fp
                     (fst (Addr_space.vol_seg_of_tindex st.aspace tindex))
              then begin
                let heat = Obs.Heat.get st.heat ~now:tnow tindex in
                if heat >= 0.05 then
                  match !best with
                  | Some (h, _) when h >= heat -> ()
                  | _ -> best := Some (heat, tindex)
              end);
          match !best with
          | None -> ()
          | Some (_, tindex) ->
              let line =
                Seg_cache.insert st.cache ~tindex ~disk_seg:(-1)
                  ~state:Seg_cache.Fetching ~now:tnow
              in
              line.Seg_cache.prefetched <- true;
              line.Seg_cache.idle_hint <- true;
              line.Seg_cache.span_id <-
                Sim.Trace.async_begin ~track:"service" ~cat:"lifecycle" "idle-prefetch"
                  ~args:[ ("tindex", string_of_int tindex) ];
              line.Seg_cache.ledger <- Sim.Ledger.open_request ~kind:"prefetch";
              Sim.Metrics.incr (Sim.Metrics.counter st.metrics "idle.issued");
              State.submit st (Fetch { line; enqueued = tnow; is_prefetch = true })
        end
      in
      let rec loop () =
        Sim.Condvar.wait st.idle_kick;
        if not st.stop_service then begin
          try_issue ();
          loop ()
        end
      in
      loop ())

(* ---------- the service pipeline ---------- *)

(* The service/I-O machinery (paper §6.7, and §11's "overlapping the
   phases"): a dispatcher that never blocks on a transfer, tertiary
   workers that claim volumes, and — in [Pipelined] mode — a cache-disk
   worker, connected by the queues above. Each in-flight segment owns
   its buffer, and the number of buffers is bounded by the cache lines
   the dispatcher can allocate. [Serial] is the same pipeline with one
   tertiary worker running both phases inline; the streaming settings
   only move where a phase runs and when data is published (see
   service.mli). *)
let spawn st ~io_mode =
  let tq = tq_create io_mode in
  let dq = match io_mode with Pipelined -> Some (dq_create ()) | Serial -> None in
  (* tertiary workers: the jukebox model arbitrates drives and the robot,
     so one worker per drive keeps every drive busy without more policy *)
  let nworkers =
    match io_mode with Pipelined -> max 1 (Footprint.ndrives st.fp) | Serial -> 1
  in
  (* hand a read image to the cache-disk side *)
  let to_disk ctx image =
    match dq with
    | None -> fetch_write st ctx image
    (* the disk worker may be gone once [stop_service] is set: fail the
       line rather than park it in a dead queue *)
    | Some _ when st.stop_service -> fail_fetch st ctx.f_line "service stopped"
    | Some dq -> dq_push st dq ~urgent:ctx.f_urgent (D_land (ctx, image))
  in
  for i = 0 to nworkers - 1 do
    let wname = Printf.sprintf "hl-io-tert%d" i in
    (* Heartbeats for the health plane's progress watchdog: busy at job
       claim, idle at completion; streamed chunks beat in between. A
       wedged drive (Fault hang) stops beating mid-job, which is
       exactly the signature the watchdog looks for. *)
    let busy vol what =
      if Obs.Health.enabled () then
        Obs.Health.worker_busy wname (Printf.sprintf "%s vol%d" what vol)
    in
    let idle () = if Obs.Health.enabled () then Obs.Health.worker_idle wname in
    Sim.Engine.spawn st.engine ~name:wname (fun () ->
        let rec loop () =
          match tq_pop st tq with
          | None -> idle ()
          | Some (vol, T_fetch ctx) ->
              busy vol "fetch";
              let result = fetch_read st ctx in
              tq_release tq vol;
              (match result with
              | Ok image -> to_disk ctx image
              | Error msg -> fail_fetch st ctx.f_line msg);
              idle ();
              loop ()
          | Some (vol, T_writeout ctx) ->
              busy vol "writeout";
              (* Serial has no cache-disk worker: stage inline *)
              if Option.is_none dq then writeout_stage st ctx;
              (match
                 match ctx.w_failed with Some msg -> Error msg | None -> writeout_write st ctx
               with
              | Ok () -> ()
              | Error msg -> fail_writeout st ctx msg);
              wo_settle st ctx;
              tq_release tq vol;
              idle ();
              loop ()
        in
        loop ())
  done;
  Option.iter
    (fun dq ->
      let dbusy what = if Obs.Health.enabled () then Obs.Health.worker_busy "hl-io-disk" what in
      let didle () = if Obs.Health.enabled () then Obs.Health.worker_idle "hl-io-disk" in
      Sim.Engine.spawn st.engine ~name:"hl-io-disk" (fun () ->
          let rec loop () =
            match dq_pop st dq with
            | None -> didle ()
            | Some (D_land (ctx, image)) ->
                dbusy "fetch-land";
                fetch_write st ctx image;
                didle ();
                loop ()
            | Some (D_stage ctx) ->
                dbusy "writeout-stage";
                writeout_stage st ctx;
                didle ();
                (* not overlapped, the tertiary write is queued for a
                   drive once the image is whole *)
                (if not ctx.w_overlap then
                   match ctx.w_failed with
                   | Some msg ->
                       fail_writeout st ctx msg;
                       wo_settle st ctx
                   | None when st.stop_service ->
                       fail_writeout st ctx "service stopped";
                       wo_settle st ctx
                   | None -> tq_push_writeout st tq ctx);
                loop ()
          in
          loop ()))
    dq;
  (* Serial is the paper's baseline: no speculative idle fetches *)
  (match io_mode with Serial -> () | Pipelined -> spawn_idle_readahead st tq);
  (* requests whose cache-line allocation failed; retried on progress,
     demand fetches first. Pipelined drops a prefetch that cannot get a
     line — speculative work must never pile up in front of the
     allocator — while Serial keeps it queued behind demand, as the
     paper's one-request-at-a-time service does *)
  let starved : (Seg_cache.line * float) Queue.t = Queue.create () in
  let starved_prefetch : (Seg_cache.line * float) Queue.t = Queue.create () in
  let poke_pending = ref false in
  (* the poker turns cache-progress events into service-queue messages,
     so the dispatcher has a single block point (Mailbox.recv) and never
     needs to poll *)
  Sim.Engine.spawn st.engine ~name:"hl-progress" (fun () ->
      let rec loop () =
        Sim.Condvar.wait st.cache_progress;
        if not st.stop_service then begin
          if
            not (Queue.is_empty starved && Queue.is_empty starved_prefetch || !poke_pending)
          then begin
            poke_pending := true;
            Sim.Mailbox.send st.service_mb Progress
          end;
          loop ()
        end
      in
      loop ());
  Sim.Engine.spawn st.engine ~name:"hl-service" (fun () ->
      (* allocate a line and hand the fetch to the tertiary pool; false
         if no line is obtainable right now *)
      let dispatch_fetch ~urgent line enqueued =
        match Evict.try_allocate st with
        | Some seg ->
            line.Seg_cache.disk_seg <- seg;
            Lfs.Segusage.set_cache_tag (Lfs.Fs.seguse (fs st)) seg line.Seg_cache.tindex;
            observe st "service.queue_wait_s" (now st -. enqueued);
            Sim.Ledger.charge_since line.Seg_cache.ledger Sim.Ledger.Queue_wait enqueued;
            Sim.Trace.async_instant line.Seg_cache.span_id ~args:[ ("phase", "dispatch") ];
            tq_push_fetch st tq { f_line = line; f_urgent = urgent; f_enqueued = enqueued };
            true
        | None -> false
      in
      let retry_starved () =
        let rec go q ~urgent =
          match Queue.peek_opt q with
          | Some (line, enqueued) when dispatch_fetch ~urgent line enqueued ->
              ignore (Queue.pop q);
              go q ~urgent
          | _ -> ()
        in
        go starved ~urgent:true;
        if Queue.is_empty starved then go starved_prefetch ~urgent:false
      in
      let rec loop () =
        (match Sim.Mailbox.recv st.service_mb with
        | (Fetch _ | Writeout _) as req when st.stop_service ->
            fail_request st req "service stopped"
        | Fetch { line; enqueued; is_prefetch } ->
            if not (dispatch_fetch ~urgent:(not is_prefetch) line enqueued) then
              if not is_prefetch then Queue.add (line, enqueued) starved
              else (
                match io_mode with
                | Serial -> Queue.add (line, enqueued) starved_prefetch
                | Pipelined -> drop_hint st line)
        | Writeout { line; enqueued; status; done_cv } ->
            preempt_idle st tq;
            observe st "service.queue_wait_s" (now st -. enqueued);
            Sim.Ledger.charge_since line.Seg_cache.ledger Sim.Ledger.Queue_wait enqueued;
            Sim.Trace.async_instant line.Seg_cache.span_id ~args:[ ("phase", "dispatch") ];
            let ctx =
              {
                w_line = line;
                w_status = status;
                w_done = done_cv;
                w_image = take_image ~moving:true st;
                w_read = 0;
                w_halves = 2;
                w_avail = Sim.Condvar.create ();
                w_failed = None;
                w_overlap = st.streaming_writeout && dq <> None;
              }
            in
            (match dq with
            | Some dq ->
                (* the cache-disk worker stages the image; overlapped,
                   both halves start now — the disk read begins filling
                   the image while the tertiary job queues for a drive —
                   otherwise the tertiary job is queued when the read
                   finishes *)
                dq_push st dq ~urgent:false (D_stage ctx);
                if ctx.w_overlap then tq_push_writeout st tq ctx
            | None -> tq_push_writeout st tq ctx)
        | Progress ->
            poke_pending := false;
            retry_starved ());
        if not st.stop_service then loop ()
      in
      loop ());
  fun () ->
    st.stop_service <- true;
    (* shutdown drain: fail everything that was queued but never started
       — a dead drive can leave work parked here forever — so every
       waiter wakes and [Engine.blocked_processes] drains to zero.
       In-flight transfers are not here (their worker popped them) and
       finish on their own: hangs are bounded delays. *)
    let abort = "service stopped" in
    let drain q f =
      Queue.iter f q;
      Queue.clear q
    in
    let abort_fetch (_, _, ctx) = fail_fetch st ctx.f_line abort in
    Hashtbl.iter
      (fun _ vw ->
        drain vw.vw_urgent abort_fetch;
        drain vw.vw_prefetch abort_fetch;
        drain vw.vw_wo (fun (_, _, ctx) ->
            fail_writeout st ctx abort;
            wo_settle st ctx;
            (* Serial stages inline: that half never ran either *)
            if dq = None then wo_settle st ctx))
      tq.tq_vols;
    (* [fail_writeout] is idempotent and always unsticks the stream
       watermark, so reaching an overlapped write-out from both of its
       queues is safe *)
    let abort_disk_job (_, job) =
      match job with
      | D_land (ctx, _) -> fail_fetch st ctx.f_line abort
      | D_stage ctx ->
          fail_writeout st ctx abort;
          wo_settle st ctx;
          (* not overlapped, the tertiary half was never queued *)
          if not ctx.w_overlap then wo_settle st ctx
    in
    Option.iter
      (fun dq ->
        drain dq.dq_urgent abort_disk_job;
        drain dq.dq_normal abort_disk_job)
      dq;
    drain starved (fun (line, _) -> fail_fetch st line abort);
    drain starved_prefetch (fun (line, _) -> fail_fetch st line abort);
    let rec drain_mb () =
      match Sim.Mailbox.try_recv st.service_mb with
      | Some req ->
          fail_request st req abort;
          drain_mb ()
      | None -> ()
    in
    drain_mb ();
    (* wake every parked worker so it can exit: the dispatcher blocks in
       Mailbox.recv, so it gets a message rather than a broadcast *)
    Sim.Mailbox.send st.service_mb Progress;
    Sim.Condvar.broadcast tq.tq_cv;
    Option.iter (fun dq -> Sim.Condvar.broadcast dq.dq_cv) dq;
    Sim.Condvar.broadcast st.idle_kick;
    Sim.Condvar.broadcast st.cache_progress

type ticket = { status : writeout_status ref; done_cv : Sim.Condvar.t }

let request_writeout st line =
  let status = ref Pending in
  let done_cv = Sim.Condvar.create () in
  line.Seg_cache.span_id <-
    Sim.Trace.async_begin ~track:"service" ~cat:"lifecycle" "writeout"
      ~args:[ ("tindex", string_of_int line.Seg_cache.tindex) ];
  line.Seg_cache.ledger <- Sim.Ledger.open_request ~kind:"writeout";
  submit st (Writeout { line; enqueued = now st; status; done_cv });
  { status; done_cv }

let await ticket =
  while !(ticket.status) = Pending do
    Sim.Condvar.wait ticket.done_cv
  done;
  !(ticket.status)
