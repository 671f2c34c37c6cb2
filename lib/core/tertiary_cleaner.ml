open State
open Lfs

type result = {
  volume : int;
  segments_scanned : int;
  blocks_remigrated : int;
  inodes_remigrated : int;
}

let volume_live_bytes st vol =
  let spv = Addr_space.segs_per_volume st.aspace in
  let total = ref 0 in
  for seg = 0 to spv - 1 do
    let tindex = Addr_space.tindex_of_vol_seg st.aspace ~vol ~seg in
    total := !total + (Segusage.get st.tseg tindex).Segusage.live_bytes
  done;
  !total

let volume_used_segs st vol =
  let spv = Addr_space.segs_per_volume st.aspace in
  let used = ref 0 in
  for seg = 0 to spv - 1 do
    let tindex = Addr_space.tindex_of_vol_seg st.aspace ~vol ~seg in
    if (Segusage.get st.tseg tindex).Segusage.state <> Segusage.Clean then incr used
  done;
  !used

let select_volume st =
  let fsys = fs st in
  let writing = Fs.tvol fsys in
  let candidates = ref [] in
  for vol = Addr_space.nvolumes st.aspace - 1 downto 0 do
    if vol <> writing && volume_used_segs st vol > 0 then
      candidates := (vol, volume_live_bytes st vol) :: !candidates
  done;
  (* least live data first; the earlier volume wins ties, preserving
     the original scan order *)
  let ranked =
    List.stable_sort (fun (_, a) (_, b) -> compare (a : int) b) !candidates
  in
  match ranked with
  | [] -> None
  | (vol, _) :: _ as all ->
      if Obs.Decision.enabled () then begin
        let now = Sim.Engine.now st.engine in
        let spv = Addr_space.segs_per_volume st.aspace in
        let bs = st.disk.Lfs.Dev.block_size in
        let vol_bytes = spv * seg_blocks st * bs in
        let cand (v, live) =
          Obs.Decision.candidate v
            ~label:(Printf.sprintf "vol%d" v)
            ~score:(-.float_of_int live)
            ~feats:
              {
                Obs.Decision.idle = 0.0;
                size = live;
                util = float_of_int live /. float_of_int (max 1 vol_bytes);
                temp = 0.0;
                age = 0.0;
              }
        in
        Obs.Decision.emit ~now ~site:Obs.Decision.Tclean_volume ~policy:"least_live"
          ~chosen:[ cand (List.hd all) ]
          ~rejected:(List.map cand (List.tl all))
          ()
      end;
      Some vol

let volume_segment st tindex =
  let vol, seg = Addr_space.vol_seg_of_tindex st.aspace tindex in
  {
    Cleaner.base = Addr_space.seg_base st.aspace tindex;
    stop = seg_blocks st;
    load = ignore;
    read_into =
      (fun ~addr ~dst ->
        let block =
          Footprint.read_blocks st.fp ~vol ~seg ~off:(Addr_space.offset_in_seg st.aspace addr) ~count:1
        in
        Bytes.blit block 0 dst 0 (Bytes.length block));
    unload = ignore;
  }

let live_contents st tindex =
  let fsys = fs st in
  let blocks, inodes =
    Cleaner.fold_segment fsys (volume_segment st tindex)
      {
        Cleaner.file_block =
          (fun ((blocks, inodes) as acc) ~addr ~inum ~version bkey ->
            if Cleaner.is_live fsys ~addr ~inum ~version bkey then ((inum, bkey) :: blocks, inodes)
            else acc);
        inode_block = (fun acc ~addr:_ -> acc);
        live_inode = (fun (blocks, inodes) ~addr:_ ~inum -> (blocks, inum :: inodes));
      }
      ([], [])
  in
  (List.rev blocks, List.rev inodes)

let clean_volume st vol =
  Sim.Trace.span ~track:"tertiary-cleaner" ~cat:"cleaner" "clean-volume"
    ~args:[ ("vol", string_of_int vol) ]
  @@ fun () ->
  Sim.Metrics.incr (Sim.Metrics.counter st.metrics "tcleaner.volumes_cleaned");
  let spv = Addr_space.segs_per_volume st.aspace in
  st.avoid_volume <- Some vol;
  Fun.protect ~finally:(fun () -> st.avoid_volume <- None) @@ fun () ->
  let fsys = fs st in
  let scanned = ref 0 in
  let moved = ref 0 in
  let all_inodes = ref [] in
  (* Work segment by segment, warming the cache with one whole-segment
     demand fetch first: the gather then reads from the disk cache, so
     cleaning a live volume costs a couple of media motions per segment
     instead of one per block (vital on a one-drive robot). *)
  for seg = 0 to spv - 1 do
    let tindex = Addr_space.tindex_of_vol_seg st.aspace ~vol ~seg in
    if (Segusage.get st.tseg tindex).Segusage.state <> Segusage.Clean then begin
      incr scanned;
      let blocks, inodes = live_contents st tindex in
      all_inodes := !all_inodes @ inodes;
      if blocks <> [] then begin
        (if Seg_cache.find st.cache tindex = None then
           ignore
             ((Fs.dev fsys).Lfs.Dev.read
                ~blk:(Addr_space.seg_base st.aspace tindex)
                ~count:1));
        moved := !moved + List.length blocks;
        ignore (Migrator.migrate_blocks st ~allow_tertiary:true ~checkpoint:false blocks)
      end
    end
  done;
  let remigrated_inodes = List.sort_uniq compare !all_inodes in
  if remigrated_inodes <> [] then begin
    (* re-home live inodes into a fresh tertiary inode block *)
    ignore
      (Migrator.migrate_files st ~checkpoint:false ~with_inodes:true
         (List.filter
            (fun inum ->
              let e = Imap.get (Fs.imap fsys) inum in
              e.Imap.addr > 0 && Addr_space.is_tertiary st.aspace e.Imap.addr
              && Addr_space.tindex_of_addr st.aspace e.Imap.addr / spv = vol)
            remigrated_inodes))
  end;
  (* drop any cache lines over this volume, then wipe the medium *)
  Seg_cache.iter st.cache (fun line ->
      if
        line.Seg_cache.tindex / spv = vol
        && (line.Seg_cache.state = Seg_cache.Resident
           || line.Seg_cache.state = Seg_cache.Staged_clean)
        && line.Seg_cache.pins = 0
      then Evict.eject st line);
  Hl_log.Log.info (fun m ->
      m "tertiary cleaner: erasing volume %d (%d segments scanned, %d blocks re-migrated)" vol
        !scanned !moved);
  Footprint.erase_volume st.fp vol;
  for seg = 0 to spv - 1 do
    let tindex = Addr_space.tindex_of_vol_seg st.aspace ~vol ~seg in
    Segusage.set_state st.tseg tindex Segusage.Clean
  done;
  Fs.checkpoint fsys;
  Sim.Metrics.incr ~by:!moved (Sim.Metrics.counter st.metrics "tcleaner.blocks_remigrated");
  Sim.Metrics.incr ~by:!scanned (Sim.Metrics.counter st.metrics "tcleaner.segments_scanned");
  Sim.Metrics.incr
    ~by:(List.length remigrated_inodes)
    (Sim.Metrics.counter st.metrics "tcleaner.inodes_remigrated");
  {
    volume = vol;
    segments_scanned = !scanned;
    blocks_remigrated = !moved;
    inodes_remigrated = List.length remigrated_inodes;
  }

let free_tsegs st =
  let free = ref 0 in
  Segusage.iter st.tseg (fun _ e -> if e.Segusage.state = Segusage.Clean then incr free);
  !free

let clean_if_needed st ~free_target =
  let results = ref [] in
  let rec go () =
    if free_tsegs st < free_target then
      match select_volume st with
      | Some vol ->
          results := clean_volume st vol :: !results;
          if free_tsegs st < free_target then go ()
      | None -> ()
  in
  go ();
  List.rev !results
