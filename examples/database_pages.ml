(* Database-page workload (paper §5.2): a large relation file is
   accessed randomly and incompletely, so whole-file migration would be
   wrong — dormant page ranges should migrate while the hot working set
   stays on disk. The block-range tracker records access ranges at
   dynamic granularity; cold ranges feed the migrator's block-level
   mechanism ([lfs_migratev] on arbitrary blocks).

     dune exec examples/database_pages.exe *)

open Lfs

let () =
  let engine = Sim.Engine.create () in
  Sim.Engine.spawn engine (fun () ->
      let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"dbdisk" in
      let jukebox =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:8 ~vol_capacity:(40 * 256)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "mo"
      in
      let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:40 [ jukebox ] in
      let prm = { (Param.default ~nsegs:64) with Param.max_inodes = 256 } in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp () in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in

      (* attach the block-range tracker to the access stream *)
      let tracker = Policy.Block_range.create ~max_records_per_file:256 () in
      let _detach = Policy.Block_range.attach tracker ~block_size:prm.Param.block_size hl in

      (* a 16 MB relation of 4 KB pages *)
      let npages = 4096 in
      let page i = Bytes.init 4096 (fun j -> Char.chr ((i + j) land 0xff)) in
      let relation = Bytes.create (npages * 4096) in
      for i = 0 to npages - 1 do
        Bytes.blit (page i) 0 relation (i * 4096) 4096
      done;
      Highlight.Hl.write_file hl "/relation.db" relation;
      Fs.flush fs;
      Printf.printf "loaded /relation.db: %d pages (%.0f MB)\n" npages
        (float_of_int (npages * 4096) /. 1048576.0);

      (* query phase: two hot key ranges get hammered, the rest dormant *)
      let rng = Util.Rng.create 7 in
      let hot_ranges = [ (100, 160); (2000, 2100) ] in
      for _ = 1 to 400 do
        (* queries touch 8-page extents within the hot key ranges *)
        let lo, hi = List.nth hot_ranges (Util.Rng.int rng 2) in
        let p = lo + Util.Rng.int rng (hi - lo - 8) in
        ignore (Highlight.Hl.read_file hl "/relation.db" ~off:(p * 4096) ~len:(8 * 4096) ());
        Sim.Engine.delay 2.0
      done;
      let inum = (Dir.namei fs "/relation.db").Inode.inum in
      Printf.printf "tracker holds %d range records for the relation\n"
        (List.length (Policy.Block_range.ranges tracker inum));

      (* migrate the page ranges idle for over ten minutes *)
      let cold =
        Policy.Block_range.cold_blocks tracker ~now:(Sim.Engine.now engine) ~older_than:600.0
      in
      Printf.printf "migrating %d cold pages (hot working set stays on disk)...\n"
        (List.length cold);
      let tsegs = Highlight.Migrator.migrate_blocks st cold in
      Printf.printf "  -> %d tertiary segments\n" (List.length tsegs);

      (* hot pages still read at disk speed; a dormant page pays a fetch *)
      Bcache.invalidate_clean (Fs.bcache fs);
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/relation.db" ];
      let time_read p =
        let t0 = Sim.Engine.now engine in
        let b = Highlight.Hl.read_file hl "/relation.db" ~off:(p * 4096) ~len:4096 () in
        assert (Bytes.equal b (page p));
        Sim.Engine.now engine -. t0
      in
      Printf.printf "hot page 120:     %.3fs (disk)\n" (time_read 120);
      Printf.printf "hot page 2050:    %.3fs (disk)\n" (time_read 2050);
      Printf.printf "dormant page 3000: %.3fs (demand fetch)\n" (time_read 3000);
      Printf.printf "neighbour 3001:    %.3fs (now cached)\n" (time_read 3001);

      let s = Highlight.Hl.stats hl in
      Printf.printf "\nblocks migrated: %d; tertiary live: %.1f MB; demand fetches: %d\n"
        s.Highlight.Hl.blocks_migrated
        (float_of_int s.Highlight.Hl.tertiary_live_bytes /. 1048576.0)
        s.Highlight.Hl.demand_fetches;
      Highlight.Hl.unmount hl);
  Sim.Engine.run engine
