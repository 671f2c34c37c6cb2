open State
open Lfs

(* A candidate is a disk-resident, clean, currently-mapped block. *)
let resolve_candidate ?(allow_tertiary = false) st (inum, bkey) =
  let fsys = fs st in
  (* the ifile and tsegfile must always remain on disk (paper section 6.4) *)
  if inum = 1 || inum = 3 then None
  else
    match Fs.get_inode fsys inum with
    | exception Not_found -> None
    | ino -> (
        match Fs.lookup_addr fsys ino bkey with
        | -1 -> None
        | addr ->
            if Addr_space.is_tertiary st.aspace addr && not allow_tertiary then None
            else if Bcache.is_dirty (Fs.bcache fsys) (Bcache.key inum bkey) then None
            else Some (inum, bkey, addr))

(* Build the FINFO list for a staging segment, grouping runs by inum in
   block order, exactly as the log writer does. *)
let finfos_of fsys blocks =
  let groups = ref [] in
  List.iter
    (fun (inum, bkey, _) ->
      match !groups with
      | (i, keys) :: rest when i = inum -> groups := (i, bkey :: keys) :: rest
      | _ -> groups := (inum, [ bkey ]) :: !groups)
    blocks;
  List.rev_map
    (fun (inum, keys_rev) ->
      let e = Imap.get (Fs.imap fsys) inum in
      let bs = (Fs.param fsys).Param.block_size in
      let lastlength =
        match Fs.get_inode fsys inum with
        | ino when ino.Inode.size mod bs <> 0 -> ino.Inode.size mod bs
        | _ | (exception Not_found) -> bs
      in
      {
        Summary.fi_ino = inum;
        fi_version = e.Imap.version;
        fi_lastlength = lastlength;
        fi_blocks = List.rev keys_rev;
      })
    !groups

(* Stage one tertiary segment's worth of blocks (plus, optionally, the
   inodes of [inode_set]) and queue it for copy-out. *)
let stage_segment ?(defer = false) st ~inode_set blocks =
  Sim.Trace.span ~track:"migrator" ~cat:"migrator" "stage-segment"
    ~args:[ ("blocks", string_of_int (List.length blocks)) ]
  @@ fun () ->
  let fsys = fs st in
  let bs = (Fs.param fsys).Param.block_size in
  let sgb = seg_blocks st in
  let tindex = next_tseg st in
  let disk_seg = Evict.allocate ~staging:true st in
  let line =
    Seg_cache.insert st.cache ~tindex ~disk_seg ~state:Seg_cache.Staging
      ~now:(Sim.Engine.now st.engine)
  in
  Segusage.set_cache_tag (Fs.seguse fsys) disk_seg tindex;
  let tbase = Addr_space.seg_base st.aspace tindex in
  if 1 + List.length blocks > sgb then invalid_arg "Migrator.stage_segment: overfull segment";
  (* the segment image is assembled in place in a pooled segment
     buffer: summary in block 0, then data blocks, then inode blocks,
     each overwriting its whole block. The whole image goes to the cache
     disk, so the tail past the last packed block is zeroed before the
     write: unused blocks must be zero on the media *)
  let segbufs = Fs.segbufs fsys in
  let buf = Util.Bufpool.take segbufs in
  let image = Util.Bufpool.bytes buf in
  (* gather the payload with the migrator's raw disk access: the blocks
     land in the private image, not the buffer cache. Each block brings
     the sum it was last read or written with when that is known, so
     only blocks of unknown sum are hashed; the block sums fold into the
     segment's data sum. *)
  let shift = Util.Crc32.shift bs in
  let data_crc = ref 0 in
  let add_block_crc dst carried =
    let crc = if carried >= 0 then carried else Util.Crc32.bytes ~off:dst ~len:bs image in
    data_crc := Util.Crc32.combine shift !data_crc crc
  in
  let payload =
    List.mapi
      (fun i (inum, bkey, addr) ->
        let dst = (i + 1) * bs in
        let key = Bcache.key inum bkey in
        let carried =
          match Bcache.find (Fs.bcache fsys) key with
          | d when d != Bcache.miss ->
              Bytes.blit d 0 image dst bs;
              Bcache.crc (Fs.bcache fsys) key d
          | _ ->
              Block_io.read_block_into st addr ~dst:image ~dst_off:dst;
              Fs.written_crc fsys addr
        in
        add_block_crc dst carried;
        (inum, bkey, addr))
      blocks
  in
  (* re-verify and re-aim pointers; blocks that moved while we were
     reading are left as dead slots in the staging segment *)
  let live =
    List.filteri
      (fun i (inum, bkey, addr) ->
        match Fs.get_inode fsys inum with
        | exception Not_found -> false
        | ino ->
            Fs.lookup_addr fsys ino bkey = addr
            && not (Bcache.is_dirty (Fs.bcache fsys) (Bcache.key inum bkey))
            &&
            (Fs.repoint fsys ino bkey (tbase + 1 + i);
             true))
      payload
  in
  (* optionally pack the fully-migrated inodes right into the segment *)
  let ipb = Inode.per_block ~block_size:bs in
  let inodes_to_pack =
    List.filter
      (fun inum ->
        match Fs.get_inode fsys inum with exception Not_found -> false | _ -> true)
      inode_set
  in
  let ndata = List.length payload in
  let rec pack_inode_blocks acc next = function
    | [] -> List.rev acc
    | batch ->
        let chunk, rest = Util.Misc.split_at ipb batch in
        pack_inode_blocks ((next, chunk) :: acc) (next + 1) rest
  in
  let inode_blocks = pack_inode_blocks [] ndata inodes_to_pack in
  if 1 + ndata + List.length inode_blocks > sgb then
    invalid_arg "Migrator.stage_segment: overfull segment";
  List.iter
    (fun (slot, inums) ->
      let taddr = tbase + 1 + slot in
      let inos = List.map (Fs.get_inode fsys) inums in
      let block = Inode.pack_block ~block_size:bs inos in
      Bytes.blit block 0 image ((1 + slot) * bs) bs;
      add_block_crc ((1 + slot) * bs) (-1);
      List.iter
        (fun inum ->
          let e = Imap.get (Fs.imap fsys) inum in
          if e.Imap.addr > 0 then Fs.account fsys ~addr:e.Imap.addr (-Inode.isize);
          Fs.account fsys ~addr:taddr Inode.isize;
          Imap.set_addr (Fs.imap fsys) inum taddr;
          Sim.Metrics.incr (Sim.Metrics.counter st.metrics "migrator.inodes_migrated"))
        inums)
    inode_blocks;
  let summary =
    {
      Summary.ss_next = -1;
      ss_create = Sim.Engine.now st.engine;
      ss_serial = Fs.serial fsys;
      ss_flags = 1 (* tertiary segment marker *);
      finfos = finfos_of fsys payload;
      inode_addrs = List.map (fun (slot, _) -> tbase + 1 + slot) inode_blocks;
    }
  in
  Summary.serialize_into ~block_size:bs ~data_crc:!data_crc summary ~dst:image ~dst_off:0;
  let used = (1 + ndata + List.length inode_blocks) * bs in
  Bytes.fill image used (Bytes.length image - used) '\000';
  Fs.charge_copy fsys (Bytes.length image);
  (* a raw whole-segment write, bypassing the buffer cache *)
  st.disk.Lfs.Dev.write ~blk:(disk_seg_base st disk_seg) ~data:image;
  (* the cache disk holds the only copy the write-out needs; a write
     that raised leaves the buffer to the GC *)
  Util.Bufpool.give segbufs buf;
  (* manifest for end-of-medium re-homing *)
  Hashtbl.replace st.manifests tindex
    (List.mapi
       (fun i (inum, bkey, _) ->
         Staged_block { sb_inum = inum; sb_bkey = bkey; sb_taddr = tbase + 1 + i })
       payload
    @ List.map
        (fun (slot, inums) -> Staged_inode_block { si_taddr = tbase + 1 + slot; si_inums = inums })
        inode_blocks);
  Hl_log.Log.debug (fun m ->
      m "staged tseg %d: %d blocks (%d live), %d inodes" tindex (List.length payload)
        (List.length live)
        (List.length inodes_to_pack));
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
  (line, ticket)

let rec chunks n = function
  | [] -> []
  | l ->
      let chunk, rest = Util.Misc.split_at n l in
      chunk :: chunks n rest

(* Stage a batch of resolved candidates, appending [inode_set]'s inodes
   to the final staging segment. *)
(* The migrator keeps a shallow pipeline to its I/O server, as the
   paper's does (Table 4 measures only ~1% queueing): at most
   [pipeline_depth] staged segments may be awaiting copy-out before the
   migrator stages another. *)
let pipeline_depth = 3

let stage_batch ?(defer = false) st ~inode_set candidates =
  let fsys = fs st in
  let sgb = seg_blocks st in
  let ipb = Inode.per_block ~block_size:(Fs.param fsys).Param.block_size in
  let inode_block_budget = (List.length inode_set + ipb - 1) / ipb in
  let capacity = sgb - 1 - inode_block_budget in
  if capacity <= 0 then invalid_arg "Migrator: segment too small";
  let groups = chunks capacity candidates in
  let in_flight = Queue.create () in
  let throttle () =
    if not defer then
      while Queue.length in_flight >= pipeline_depth do
        match Queue.pop in_flight with
        | Some ticket -> ignore (Service.await ticket)
        | None -> ()
      done
  in
  let staged =
    List.mapi
      (fun i group ->
        throttle ();
        let inode_set = if i = List.length groups - 1 then inode_set else [] in
        let ((_, ticket) as r) = stage_segment ~defer st ~inode_set group in
        Queue.add ticket in_flight;
        r)
      groups
  in
  if groups = [] && inode_set <> [] then [ stage_segment ~defer st ~inode_set [] ]
  else staged

(* Pointer re-aiming dirties the parents of migrated blocks, so indirect
   blocks can only migrate once their children's moves have been flushed
   to the log: proceed level by level, flushing between levels. *)
let migrate_blocks_inner ?(allow_tertiary = false) ?(defer = false) st ~wait ~checkpoint
    ~inode_set pairs =
  let fsys = fs st in
  (* the migrator, like the cleaner, is a space-reclaimer: its small
     bookkeeping flushes may draw on the cleaner's reserve, otherwise a
     nearly-full disk could never migrate its way out *)
  Fs.set_cleaning fsys true;
  Fun.protect ~finally:(fun () -> Fs.set_cleaning fsys false) @@ fun () ->
  let staged = ref [] in
  for level = 0 to 3 do
    let of_level = List.filter (fun (_, bkey) -> Bkey.level bkey = level) pairs in
    if of_level <> [] then begin
      let candidates = List.filter_map (resolve_candidate ~allow_tertiary st) of_level in
      if candidates <> [] then
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

let privileged_flush fsys =
  Fs.set_cleaning fsys true;
  Fun.protect ~finally:(fun () -> Fs.set_cleaning fsys false) (fun () -> Fs.flush fsys)

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
          let had = ref false in
          File.iter_assigned_blocks fsys ino (fun bkey addr ->
              if not (Addr_space.is_tertiary st.aspace addr) then begin
                had := true;
                candidates := (inum, bkey) :: !candidates
              end);
          (* a read of this file within the mistake window counts as a
             recall against the migration decision that demoted it *)
          if !had && Obs.Decision.enabled () then
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
      | ino ->
          File.iter_assigned_blocks fsys ino (fun bkey addr ->
              if not (Addr_space.is_tertiary st.aspace addr) then
                pairs := (inum, bkey) :: !pairs))
    inums;
  stage_only st (List.rev !pairs)

let flush_staged st ?(wait = true) () =
  let tickets = ref [] in
  Seg_cache.iter st.cache (fun line ->
      if line.Seg_cache.state = Seg_cache.Staging then
        tickets := Service.request_writeout st line :: !tickets);
  if wait then List.iter (fun tk -> ignore (Service.await tk)) !tickets;
  List.length !tickets
