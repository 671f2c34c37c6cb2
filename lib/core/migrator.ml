open State
open Lfs

(* A candidate is a disk-resident, clean, currently-mapped block: its
   address, or -1. *)
let candidate_addr ?(allow_tertiary = false) st inum bkey =
  let fsys = fs st in
  (* the ifile and tsegfile must always remain on disk (paper section 6.4) *)
  if inum = 1 || inum = 3 then -1
  else
    match Fs.get_inode fsys inum with
    | exception Not_found -> -1
    | ino -> (
        match Fs.lookup_addr fsys ino bkey with
        | -1 -> -1
        | addr ->
            if Addr_space.is_tertiary st.aspace addr && not allow_tertiary then -1
            else if Bcache.is_dirty (Fs.bcache fsys) (Bcache.key inum bkey) then -1
            else addr)

let resolve_candidate ?allow_tertiary st (inum, bkey) =
  match candidate_addr ?allow_tertiary st inum bkey with
  | -1 -> None
  | addr -> Some (inum, bkey, addr)

(* Stage [blocks] into a new staging line's one partial or, when there
   are none, [inode_set]'s inodes, and queue it for copy-out; what does
   not fit is left for the next line. Nothing points into the line until
   it is written. *)
let stage_line ?(defer = false) st blocks inode_set =
  (* the blocks offered to the line, up to a segment's worth: fewer fit
     only when their summary runs out of space first *)
  let offered = min (List.length blocks) (seg_blocks st - 1) in
  Sim.Trace.span ~track:"migrator" ~cat:"migrator" "stage-segment"
    ~args:[ ("blocks", string_of_int offered) ]
  @@ fun () ->
  let fsys = fs st in
  let imap = Fs.imap fsys in
  let tindex = next_tseg st in
  let disk_seg = Evict.allocate st in
  let line =
    Seg_cache.insert st.cache ~tindex ~disk_seg ~state:Seg_cache.Staging
      ~now:(Sim.Engine.now st.engine)
  in
  Segusage.set_cache_tag (Fs.seguse fsys) disk_seg tindex;
  let p =
    Fs.open_staging fsys ~base:(Addr_space.seg_base st.aspace tindex)
      ~blk:(disk_seg_base st disk_seg)
  in
  (* gather the payload with the migrator's raw disk access: the blocks
     land in the partial's buffer, not the buffer cache, each with the
     sum it was last read or written with when that is known *)
  let fill addr key dst dst_off =
    match Bcache.find (Fs.bcache fsys) key with
    | d when d != Bcache.miss ->
        Bytes.blit d 0 dst dst_off (Bytes.length d);
        Bcache.crc (Fs.bcache fsys) key d
    | _ ->
        Block_io.read_block_into st addr ~dst ~dst_off;
        Bmap.written_crc (Fs.map fsys) addr
  in
  let rec stage acc = function
    | [] -> (List.rev acc, [])
    | ((inum, bkey, addr) :: rest) as left -> (
        let key = Bcache.key inum bkey in
        match Fs.stage_copy fsys p key (fill addr key) with
        | -1 -> (List.rev acc, left)
        | taddr -> stage ((inum, bkey, addr, taddr) :: acc) rest)
  in
  (* an inode is packed with the inode map entry it had, so its move can
     be re-verified once the line is written *)
  let assemble () =
    match blocks with
    | _ :: _ ->
        let payload, blocks_left = stage [] blocks in
        (payload, blocks_left, [], inode_set)
    | [] ->
        let inodes =
          List.filter_map
            (fun inum ->
              match Fs.get_inode fsys inum with exception Not_found -> None | i -> Some (i, true))
            inode_set
        in
        let packed, rest = Fs.stage_inodes fsys p inodes in
        ( [],
          [],
          List.map
            (fun (addr, inums) ->
              (addr, List.map (fun inum -> (inum, (Imap.get imap inum).Imap.addr)) inums))
            packed,
          List.map (fun (ino, _) -> ino.Inode.inum) rest )
  in
  let payload, blocks_left, packed, inodes_left =
    match
      let staged = assemble () in
      Fs.close_partial fsys p;
      staged
    with
    | staged -> staged
    | exception (Io_error _ as e) ->
        (* no pointer has moved: the line and its segments go back *)
        Seg_cache.remove st.cache line;
        Fs.release_segment fsys disk_seg;
        Segusage.set_state st.tseg tindex Segusage.Clean;
        raise e
  in
  (* re-verify and re-aim pointers; blocks and inodes that moved while
     the line was read or written are left as dead slots in it *)
  let live =
    List.filter
      (fun (inum, bkey, addr, taddr) ->
        candidate_addr ~allow_tertiary:true st inum bkey = addr
        && (Fs.repoint fsys (Fs.get_inode fsys inum) bkey taddr;
            true))
      payload
  in
  let inode_blocks =
    List.map
      (fun (addr, inums) ->
        let still =
          List.filter_map
            (fun (inum, was) -> if (Imap.get imap inum).Imap.addr = was then Some inum else None)
            inums
        in
        Fs.place_inodes fsys addr still;
        (addr, still))
      packed
  in
  let ninodes = List.fold_left (fun n (_, inums) -> n + List.length inums) 0 inode_blocks in
  if ninodes > 0 then
    Sim.Metrics.incr ~by:ninodes (Sim.Metrics.counter st.metrics "migrator.inodes_migrated");
  (* manifest for end-of-medium re-homing *)
  Hashtbl.replace st.manifests tindex
    (List.map
       (fun (sb_inum, sb_bkey, _, sb_taddr) -> Staged_block { sb_inum; sb_bkey; sb_taddr })
       payload
    @ List.map
        (fun (si_taddr, si_inums) -> Staged_inode_block { si_taddr; si_inums })
        inode_blocks);
  Hl_log.Log.debug (fun m ->
      m "staged tseg %d: %d blocks (%d live), %d inodes" tindex (List.length payload)
        (List.length live) ninodes);
  (* a demand miss on this segment within the mistake window marks the
     demotion as a migration mistake *)
  if Obs.Decision.enabled () then
    Obs.Decision.note_segment_demoted ~now:(Sim.Engine.now st.engine) tindex;
  Sim.Metrics.incr (Sim.Metrics.counter st.metrics "migrator.segments_staged");
  Sim.Metrics.incr ~by:(List.length live)
    (Sim.Metrics.counter st.metrics "migrator.blocks_migrated");
  (* queue the copy-out right away so the I/O server can drain staging
     lines while later segments assemble (and so staging can never
     exhaust the cache-line pool waiting for itself); the delayed-write
     policy defers this to an explicit flush instead *)
  let ticket = if defer then None else Some (Service.request_writeout st line) in
  ((line, ticket), blocks_left, inodes_left)

(* The migrator keeps a shallow pipeline to its I/O server, as the
   paper's does (Table 4 measures only ~1% queueing): at most
   [pipeline_depth] staged segments may be awaiting copy-out before the
   migrator stages another. *)
let pipeline_depth = 3

(* Stage a batch of resolved candidates, then [inode_set]'s inodes, into
   as many staging lines as they fill. *)
let stage_batch ?(defer = false) st ~inode_set candidates =
  let in_flight = Queue.create () in
  let rec go acc blocks inode_set =
    if blocks = [] && inode_set = [] then List.rev acc
    else begin
      if not defer then
        while Queue.length in_flight >= pipeline_depth do
          match Queue.pop in_flight with
          | Some ticket -> ignore (Service.await ticket)
          | None -> ()
        done;
      let ((_, ticket) as r), blocks, inode_set = stage_line ~defer st blocks inode_set in
      Queue.add ticket in_flight;
      go (r :: acc) blocks inode_set
    end
  in
  go [] candidates inode_set

(* The migrator, like the cleaner, is a space-reclaimer: its flushes
   may draw on the cleaner's reserve, otherwise a nearly-full disk could
   never migrate its way out. *)
let reclaiming fsys f =
  Fs.set_cleaning fsys true;
  Fun.protect ~finally:(fun () -> Fs.set_cleaning fsys false) f

let privileged_flush fsys = reclaiming fsys (fun () -> Fs.flush fsys)

(* Pointer re-aiming dirties the parents of migrated blocks, so indirect
   blocks can only migrate once their children's moves have been flushed
   to the log: proceed level by level, flushing between levels. *)
let migrate_blocks_inner ?(allow_tertiary = false) ?(defer = false) st ~wait ~checkpoint
    ~inode_set pairs =
  let fsys = fs st in
  reclaiming fsys @@ fun () ->
  let staged = ref [] in
  for level = 0 to 3 do
    let of_level = List.filter (fun (_, bkey) -> Bkey.level bkey = level) pairs in
    if of_level <> [] then begin
      let candidates = List.filter_map (resolve_candidate ~allow_tertiary st) of_level in
      (* reversed accumulation: appending each batch to the tail is
         quadratic in the number of staged segments *)
      staged := List.rev_append (stage_batch ~defer st ~inode_set:[] candidates) !staged;
      (* children now point into tertiary space; flush so the parents'
         on-disk copies carry the new addresses before they migrate *)
      Fs.flush fsys
    end
  done;
  if inode_set <> [] then begin
    Fs.flush fsys;
    staged := List.rev_append (stage_batch ~defer st ~inode_set []) !staged
  end;
  let staged = List.rev !staged in
  if wait then
    List.iter
      (fun (_, ticket) -> Option.iter (fun tk -> ignore (Service.await tk)) ticket)
      staged;
  if checkpoint then Fs.checkpoint fsys;
  (* the cache line tags may have moved during re-homing *)
  List.map (fun (line, _) -> line.Seg_cache.tindex) staged

let migrate_blocks st ?(wait = true) ?(checkpoint = true) ?(allow_tertiary = false) blocks =
  if List.filter_map (resolve_candidate ~allow_tertiary st) blocks = [] then []
  else migrate_blocks_inner ~allow_tertiary st ~wait ~checkpoint ~inode_set:[] blocks

(* Free allocatable slots per volume (for self-contained placement). *)
let volume_free_slots st vol =
  let spv = Addr_space.segs_per_volume st.aspace in
  if Footprint.volume_full st.fp vol then 0
  else begin
    let free = ref 0 in
    for seg = 0 to spv - 1 do
      let tindex = Addr_space.tindex_of_vol_seg st.aspace ~vol ~seg in
      if (Segusage.get st.tseg tindex).Segusage.state = Segusage.Clean then incr free
    done;
    !free
  end

(* Paper section 8.2: "migration policies should make vigorous attempts to
   keep the metadata on volumes self-contained" — place a whole batch
   (data, indirect blocks, inodes) on one volume when any volume has
   room, so a media failure never orphans data on *other* volumes. *)
let with_self_contained_volume st ~estimate f =
  let nvols = Addr_space.nvolumes st.aspace in
  let rec pick vol =
    if vol >= nvols then None
    else if volume_free_slots st vol >= estimate then Some vol
    else pick (vol + 1)
  in
  match pick 0 with
  | None -> f () (* no single volume fits: fall back to spanning *)
  | Some vol ->
      st.restrict_volume <- Some vol;
      Fun.protect ~finally:(fun () -> st.restrict_volume <- None) f

(* Cons [ino]'s disk-resident blocks onto [acc], the last block first. *)
let add_disk_blocks st ino acc =
  let acc = ref acc in
  File.iter_assigned_blocks (Fs.map (fs st)) ino (fun bkey addr ->
      if not (Addr_space.is_tertiary st.aspace addr) then acc := (ino.Inode.inum, bkey) :: !acc);
  !acc

let migrate_files st ?(wait = true) ?(checkpoint = true) ?(with_inodes = true)
    ?(self_contained = false) inums =
  let fsys = fs st in
  (* stabilise: pending writes go to the log first (with reclaimer
     privilege — migration is how a full disk gets unfull) *)
  privileged_flush fsys;
  let candidates = ref [] in
  let migratable = ref [] in
  List.iter
    (fun inum ->
      match Fs.get_inode fsys inum with
      | exception Not_found -> ()
      | ino ->
          migratable := inum :: !migratable;
          let before = !candidates in
          candidates := add_disk_blocks st ino before;
          (* a read of this file within the mistake window counts as a
             recall against the migration decision that demoted it *)
          if !candidates != before && Obs.Decision.enabled () then
            Obs.Decision.note_file_demoted ~now:(Sim.Engine.now st.engine) ~inum
              ~bytes:ino.Inode.size)
    inums;
  let candidates = List.rev !candidates in
  let inode_set = if with_inodes then List.rev !migratable else [] in
  if candidates = [] && inode_set = [] then []
  else if not self_contained then migrate_blocks_inner st ~wait ~checkpoint ~inode_set candidates
  else begin
    let capacity = seg_blocks st - 1 in
    let estimate = (List.length candidates / capacity) + 4 in
    with_self_contained_volume st ~estimate (fun () ->
        migrate_blocks_inner st ~wait ~checkpoint ~inode_set candidates)
  end

let migrate_paths st ?(wait = true) ?(checkpoint = true) ?(with_inodes = true)
    ?(self_contained = false) paths =
  let fsys = fs st in
  let inums =
    List.filter_map
      (fun path ->
        match Dir.namei_opt fsys path with
        | Some ino -> Some ino.Inode.inum
        | None -> None)
      paths
  in
  migrate_files st ~wait ~checkpoint ~with_inodes ~self_contained inums

let stage_only st pairs =
  if List.filter_map (resolve_candidate st) pairs = [] then []
  else migrate_blocks_inner ~defer:true st ~wait:false ~checkpoint:false ~inode_set:[] pairs

let stage_files_only st inums =
  let fsys = fs st in
  privileged_flush fsys;
  let pairs = ref [] in
  List.iter
    (fun inum ->
      match Fs.get_inode fsys inum with
      | exception Not_found -> ()
      | ino -> pairs := add_disk_blocks st ino !pairs)
    inums;
  stage_only st (List.rev !pairs)

let flush_staged st ?(wait = true) () =
  let tickets = ref [] in
  Seg_cache.iter st.cache (fun line ->
      if line.Seg_cache.state = Seg_cache.Staging then
        tickets := Service.request_writeout st line :: !tickets);
  if wait then List.iter (fun tk -> ignore (Service.await tk)) !tickets;
  List.length !tickets
