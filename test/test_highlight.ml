open Highlight
open Lfs

let check = Alcotest.check

let in_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "sim process did not finish"

let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

(* Small HighLight world: zero-latency disk (logic focus), an MO jukebox
   with short swap times, 16-block (64 KB) segments. *)
type world = {
  engine : Sim.Engine.t;
  store : Device.Blockstore.t;
  jb : Device.Jukebox.t;
  fp : Footprint.t;
  hl : Hl.t;
}

let make_world ?(nsegs = 48) ?(cache_segs = 10) ?(nvolumes = 4) ?(real_segs_per_vol = 8)
    ?(advertised_segs_per_vol = 8) ?(cache_policy = Seg_cache.Lru) engine =
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size ~nblocks:(Layout.disk_blocks prm)
  in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes
      ~vol_capacity:(real_segs_per_vol * prm.Param.seg_blocks)
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp =
    Footprint.create ~seg_blocks:prm.Param.seg_blocks
      ~segs_per_volume:advertised_segs_per_vol [ jb ]
  in
  let hl =
    Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs ~cache_policy ()
  in
  { engine; store; jb; fp; hl }

(* --- Addr_space (pure) --- *)

let aspace () =
  Addr_space.create ~disk_blocks:1000 ~seg_blocks:10 ~nvolumes:3 ~segs_per_volume:4 ()

let test_aspace_partition () =
  let a = aspace () in
  check Alcotest.bool "0 is disk" true (Addr_space.is_disk a 0);
  check Alcotest.bool "999 is disk" true (Addr_space.is_disk a 999);
  check Alcotest.bool "1000 is dead" true (Addr_space.is_dead_zone a 1000);
  let total = Addr_space.total_blocks a in
  check Alcotest.bool "top is tertiary" true (Addr_space.is_tertiary a (total - 1));
  check Alcotest.bool "tertiary span" true (Addr_space.is_tertiary a (total - 120));
  check Alcotest.bool "below tertiary is dead" true (Addr_space.is_dead_zone a (total - 121));
  check Alcotest.int "ntsegs" 12 (Addr_space.ntsegs a)

let test_aspace_volume_order () =
  let a = aspace () in
  let total = Addr_space.total_blocks a in
  (* volume 0's last segment ends at the top of the space *)
  let t_last_vol0 = Addr_space.tindex_of_vol_seg a ~vol:0 ~seg:3 in
  check Alcotest.int "vol0 seg3 at top" (total - 10) (Addr_space.seg_base a t_last_vol0);
  (* volume 1 sits just below volume 0 *)
  let t_last_vol1 = Addr_space.tindex_of_vol_seg a ~vol:1 ~seg:3 in
  check Alcotest.int "vol1 below vol0" (total - 50) (Addr_space.seg_base a t_last_vol1)

let prop_aspace_roundtrip =
  QCheck.Test.make ~name:"aspace tindex/addr roundtrip" ~count:300
    QCheck.(int_range 0 11)
    (fun tindex ->
      let a = aspace () in
      let base = Addr_space.seg_base a tindex in
      Addr_space.tindex_of_addr a base = tindex
      && Addr_space.tindex_of_addr a (base + 9) = tindex
      && Addr_space.offset_in_seg a (base + 7) = 7
      &&
      let vol, seg = Addr_space.vol_seg_of_tindex a tindex in
      Addr_space.tindex_of_vol_seg a ~vol ~seg = tindex)

(* --- Seg_cache (pure) --- *)

let test_seg_cache_basics () =
  let c = Seg_cache.create ~max_lines:4 () in
  let l1 = Seg_cache.insert c ~tindex:7 ~disk_seg:2 ~state:Seg_cache.Resident ~now:1.0 in
  check Alcotest.bool "found" true (Seg_cache.find c 7 = Some l1);
  check Alcotest.bool "missing" true (Seg_cache.find c 8 = None);
  Seg_cache.pin l1;
  check Alcotest.bool "pinned not victim" true (Seg_cache.choose_victim c = None);
  Seg_cache.unpin c l1;
  check Alcotest.bool "victim now" true (Seg_cache.choose_victim c = Some l1);
  Seg_cache.remove c l1;
  check Alcotest.bool "gone" true (Seg_cache.find c 7 = None)

let test_seg_cache_lru_policy () =
  let c = Seg_cache.create ~policy:Seg_cache.Lru ~max_lines:4 () in
  let l1 = Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Resident ~now:1.0 in
  let l2 = Seg_cache.insert c ~tindex:2 ~disk_seg:2 ~state:Seg_cache.Resident ~now:2.0 in
  Seg_cache.touch c l1 ~now:5.0;
  check Alcotest.bool "older is victim" true (Seg_cache.choose_victim c = Some l2)

let test_seg_cache_staging_protected () =
  let c = Seg_cache.create ~max_lines:4 () in
  ignore (Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Staging ~now:1.0);
  check Alcotest.bool "staging never victim" true (Seg_cache.choose_victim c = None)

let test_seg_cache_least_worthy () =
  let c = Seg_cache.create ~policy:Seg_cache.Least_worthy ~max_lines:4 () in
  let l1 = Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Resident ~now:1.0 in
  let l2 = Seg_cache.insert c ~tindex:2 ~disk_seg:2 ~state:Seg_cache.Resident ~now:2.0 in
  (* l1 proves its worth with two touches; l2 untouched *)
  Seg_cache.touch c l1 ~now:3.0;
  Seg_cache.touch c l1 ~now:4.0;
  check Alcotest.bool "unworthy goes first" true (Seg_cache.choose_victim c = Some l2);
  Seg_cache.touch c l2 ~now:5.0;
  Seg_cache.touch c l2 ~now:6.0;
  (* both worthy: LRU fallback picks l1 (older last_use) *)
  check Alcotest.bool "lru fallback" true (Seg_cache.choose_victim c = Some l1)

let test_seg_cache_retag () =
  let c = Seg_cache.create ~max_lines:4 () in
  let l = Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Staging ~now:1.0 in
  Seg_cache.retag c l 9;
  check Alcotest.bool "new key" true (Seg_cache.find c 9 = Some l);
  check Alcotest.bool "old key gone" true (Seg_cache.find c 1 = None);
  check Alcotest.int "field updated" 9 l.Seg_cache.tindex

(* --- end-to-end migration --- *)

let test_migrate_and_read_back () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let f = Dir.create_file fs "/archive.dat" in
      let data = bytes_pattern (40 * 4096) 1 in
      File.write fs f ~off:0 data;
      let tsegs = Migrator.migrate_paths (Hl.state w.hl) [ "/archive.dat" ] in
      check Alcotest.bool "staged segments" true (List.length tsegs >= 3);
      (* every data block now has a tertiary address *)
      let all_tertiary = ref true in
      File.iter_assigned_blocks (Fs.map fs) f (fun _ addr ->
          if not (Addr_space.is_tertiary (Hl.state w.hl).State.aspace addr) then
            all_tertiary := false);
      check Alcotest.bool "all blocks tertiary" true !all_tertiary;
      (* reads served from the still-resident staged cache lines *)
      check Alcotest.bytes "read back via cache" data (File.read fs f ~off:0 ~len:(40 * 4096));
      check Alcotest.(list string) "hierarchy invariants" [] (Hl.check w.hl))

let test_demand_fetch_after_eject () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let f = Dir.create_file fs "/cold.dat" in
      let data = bytes_pattern (20 * 4096) 2 in
      File.write fs f ~off:0 data;
      ignore (Migrator.migrate_paths (Hl.state w.hl) [ "/cold.dat" ]);
      Hl.eject_tertiary_copies w.hl ~paths:[ "/cold.dat" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      let fetched_before = (Hl.stats w.hl).Hl.demand_fetches in
      let t0 = Sim.Engine.now engine in
      check Alcotest.bytes "fetched data intact" data (File.read fs f ~off:0 ~len:(20 * 4096));
      let elapsed = Sim.Engine.now engine -. t0 in
      check Alcotest.bool "demand fetches happened" true
        ((Hl.stats w.hl).Hl.demand_fetches > fetched_before);
      (* the fetch pays MO-read + disk-write time for each segment; the
         platter is still loaded from the migration, so no swap *)
      check Alcotest.bool
        (Printf.sprintf "tertiary latency paid (%.2fs)" elapsed)
        true (elapsed > 0.15);
      check Alcotest.(list string) "hierarchy invariants" [] (Hl.check w.hl))

let test_second_read_hits_cache () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let f = Dir.create_file fs "/warm.dat" in
      let data = bytes_pattern (10 * 4096) 3 in
      File.write fs f ~off:0 data;
      ignore (Migrator.migrate_paths (Hl.state w.hl) [ "/warm.dat" ]);
      Hl.eject_tertiary_copies w.hl ~paths:[ "/warm.dat" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      ignore (File.read fs f ~off:0 ~len:(10 * 4096));
      (* second read: cached segment, disk speed, no new fetch *)
      Bcache.invalidate_clean (Fs.bcache fs);
      let fetches = (Hl.stats w.hl).Hl.demand_fetches in
      let t0 = Sim.Engine.now engine in
      check Alcotest.bytes "cached read" data (File.read fs f ~off:0 ~len:(10 * 4096));
      check Alcotest.int "no new fetch" fetches (Hl.stats w.hl).Hl.demand_fetches;
      check Alcotest.bool "fast" true (Sim.Engine.now engine -. t0 < 1.0))

(* Size tripwire: at 33 fields State.t fell into a slow OCaml 5.1
   major-heap size class, and perfbench migrate_fetch wall_s rose about
   20% with no code path changed (DESIGN.md "Observability"; 33-36
   fields are slow). A field that must be added can go into a
   sub-record. *)
let test_state_size () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fields = Obj.size (Obj.repr (Hl.state w.hl)) in
      check Alcotest.bool (Printf.sprintf "State.t has %d fields (< 33)" fields) true (fields < 33))

(* [Hl.stats] is a view over the metrics registry: every count and time
   it returns is read from one series, and [Hl.reset_stats] turns them
   all into deltas. *)
let test_stats_view () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let m = Hl.metrics w.hl in
      let bs = (Fs.param fs).Param.block_size in
      let count name = Sim.Metrics.count (Sim.Metrics.counter m name) in
      let sum name =
        match Sim.Metrics.find_histogram m name with
        | Some h -> Sim.Metrics.hist_sum h
        | None -> 0.0
      in
      let ints (s : Hl.stats) =
        [
          ("demand_fetches", s.Hl.demand_fetches, count "service.demand_fetches_submitted");
          ("writeouts", s.Hl.writeouts, count "service.writeouts");
          ("rehomes", s.Hl.rehomes, count "service.rehomes");
          ("partial_line_serves", s.Hl.partial_line_serves, count "cache.partial_serves");
          ("tail_refetch_bytes", s.Hl.tail_refetch_bytes, count "cache.tail_refetch_blocks" * bs);
          ("idle_prefetches_issued", s.Hl.idle_prefetches_issued, count "idle.issued");
          ("idle_prefetches_preempted", s.Hl.idle_prefetches_preempted, count "idle.preempted");
          ("idle_prefetches_wasted", s.Hl.idle_prefetches_wasted, count "idle.evicted_unused");
          ("prefetches_dropped", s.Hl.prefetches_dropped, count "prefetch.dropped");
          ("prefetches_used", s.Hl.prefetches_used, count "prefetch.used");
          ( "prefetches_wasted",
            s.Hl.prefetches_wasted,
            count "prefetch.dropped" + count "prefetch.evicted_unused" );
          ("cache_hits", s.Hl.cache_hits, count "cache.hits");
          ("cache_misses", s.Hl.cache_misses, count "cache.misses");
          ("cache_evictions", s.Hl.cache_evictions, count "cache.evictions");
          ("blocks_migrated", s.Hl.blocks_migrated, count "migrator.blocks_migrated");
          ("bytes_migrated", s.Hl.bytes_migrated, count "migrator.blocks_migrated" * bs);
          ("segments_staged", s.Hl.segments_staged, count "migrator.segments_staged");
          ("inodes_migrated", s.Hl.inodes_migrated, count "migrator.inodes_migrated");
          ("io_retries", s.Hl.io_retries, count "service.retries");
          ("io_failures", s.Hl.io_failures, count "service.io_failures");
          ("faults_injected", s.Hl.faults_injected, count "faults.injected");
          ( "tcleaner_volumes_cleaned",
            s.Hl.tcleaner_volumes_cleaned,
            count "tcleaner.volumes_cleaned" );
          ( "tcleaner_segments_scanned",
            s.Hl.tcleaner_segments_scanned,
            count "tcleaner.segments_scanned" );
          ( "tcleaner_blocks_remigrated",
            s.Hl.tcleaner_blocks_remigrated,
            count "tcleaner.blocks_remigrated" );
          ( "tcleaner_inodes_remigrated",
            s.Hl.tcleaner_inodes_remigrated,
            count "tcleaner.inodes_remigrated" );
        ]
      in
      let floats (s : Hl.stats) =
        [
          ("queue_time", s.Hl.queue_time, sum "service.queue_wait_s");
          ("io_disk_time", s.Hl.io_disk_time, sum "io.disk_phase_s");
          ("io_tertiary_time", s.Hl.io_tertiary_time, sum "io.tertiary_phase_s");
          ("footprint_time", s.Hl.footprint_time, Footprint.time_in_footprint w.fp);
        ]
      in
      let check_view phase =
        let s = Hl.stats w.hl in
        List.iter
          (fun (f, v, series) -> check Alcotest.int (phase ^ ": " ^ f ^ " = series") series v)
          (ints s);
        List.iter
          (fun (f, v, series) ->
            check Alcotest.bool (phase ^ ": " ^ f ^ " = series") true (Float.equal v series))
          (floats s);
        s
      in
      let f = Dir.create_file fs "/view.dat" in
      let data = bytes_pattern (40 * 4096) 11 in
      File.write fs f ~off:0 data;
      ignore (Migrator.migrate_paths (Hl.state w.hl) ~with_inodes:true [ "/view.dat" ]);
      Hl.eject_tertiary_copies w.hl ~paths:[ "/view.dat" ];
      for _ = 1 to 2 do
        Bcache.invalidate_clean (Fs.bcache fs);
        check Alcotest.bytes "read back" data (File.read fs f ~off:0 ~len:(40 * 4096))
      done;
      let s = check_view "before reset" in
      List.iter
        (fun (f, v) -> check Alcotest.bool (f ^ " happened") true (v > 0))
        [
          ("demand_fetches", s.Hl.demand_fetches);
          ("writeouts", s.Hl.writeouts);
          ("cache_hits", s.Hl.cache_hits);
          ("cache_misses", s.Hl.cache_misses);
          ("cache_evictions", s.Hl.cache_evictions);
          ("blocks_migrated", s.Hl.blocks_migrated);
          ("inodes_migrated", s.Hl.inodes_migrated);
        ];
      (* the world's disk is zero-latency: only tertiary time accrues *)
      check Alcotest.bool "tertiary time accrued" true (s.Hl.io_tertiary_time > 0.0);
      Hl.reset_stats w.hl;
      (* every delta restarts; cache_lines and tertiary_* are current
         state, attribution belongs to the ledger registry *)
      let s = check_view "after reset" in
      List.iter (fun (f, v, _) -> check Alcotest.int (f ^ " reset") 0 v) (ints s);
      List.iter (fun (f, v, _) -> check (Alcotest.float 0.0) (f ^ " reset") 0.0 v) (floats s);
      List.iter
        (fun (f, v, idle) -> check (Alcotest.float 0.0) (f ^ " reset") idle v)
        [
          ("io_overlap", s.Hl.io_overlap, 1.0);
          ("writeout_overlap", s.Hl.writeout_overlap, 1.0);
          ("prefetch_accuracy", s.Hl.prefetch_accuracy, 1.0);
          ("fetch_latency_p50", s.Hl.fetch_latency_p50, 0.0);
          ("fetch_latency_p95", s.Hl.fetch_latency_p95, 0.0);
          ("fetch_latency_p99", s.Hl.fetch_latency_p99, 0.0);
          ("first_block_p50", s.Hl.first_block_p50, 0.0);
          ("first_block_p95", s.Hl.first_block_p95, 0.0);
        ];
      Bcache.invalidate_clean (Fs.bcache fs);
      check Alcotest.bytes "read after reset" data (File.read fs f ~off:0 ~len:(40 * 4096));
      let s = check_view "after reset + read" in
      check Alcotest.bool "hits counted from the reset" true (s.Hl.cache_hits > 0);
      check Alcotest.int "no new fetch" 0 s.Hl.demand_fetches)

let test_migrate_inodes_and_dirs () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      ignore (Dir.mkdir fs "/project");
      let paths = List.init 5 (fun i -> Printf.sprintf "/project/f%d" i) in
      List.iteri
        (fun i p ->
          let f = Dir.create_file fs p in
          File.write fs f ~off:0 (bytes_pattern 6000 i))
        paths;
      (* migrate the whole subtree: files, the directory, and inodes *)
      ignore (Migrator.migrate_paths (Hl.state w.hl) ~with_inodes:true ("/project" :: paths));
      let st = Hl.state w.hl in
      let dir_ino = Dir.namei fs "/project" in
      let dir_data_addr = Fs.lookup_addr fs dir_ino (Bkey.Data 0) in
      check Alcotest.bool "directory data migrated" true
        (Addr_space.is_tertiary st.State.aspace dir_data_addr);
      let f0 = Dir.namei fs "/project/f0" in
      let e = Imap.get (Fs.imap fs) f0.Inode.inum in
      check Alcotest.bool "inode migrated" true (Addr_space.is_tertiary st.State.aspace e.Imap.addr);
      (* evict everything and walk again: inode + dir + data all fetch *)
      Hl.eject_tertiary_copies w.hl ~paths:("/project" :: paths);
      Bcache.invalidate_clean (Fs.bcache fs);
      List.iteri
        (fun i p ->
          let ino = Dir.namei fs p in
          check Alcotest.bytes "content" (bytes_pattern 6000 i) (File.read fs ino ~off:0 ~len:6000))
        paths;
      check Alcotest.(list string) "hierarchy invariants" [] (Hl.check w.hl))

let test_remount_after_migration () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let f = Dir.create_file fs "/persist.dat" in
      let data = bytes_pattern (25 * 4096) 4 in
      File.write fs f ~off:0 data;
      ignore (Migrator.migrate_paths (Hl.state w.hl) [ "/persist.dat" ]);
      Hl.unmount w.hl;
      let hl2 = Hl.mount engine ~disk:(Dev.of_store w.store) ~fp:w.fp ~cpu:Param.cpu_free () in
      let fs2 = Hl.fs hl2 in
      let f2 = Dir.namei fs2 "/persist.dat" in
      check Alcotest.bytes "data readable after remount" data
        (File.read fs2 f2 ~off:0 ~len:(25 * 4096));
      check Alcotest.(list string) "hierarchy invariants" [] (Hl.check hl2))

let test_crash_after_migration () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let f = Dir.create_file fs "/crashy.dat" in
      let data = bytes_pattern (12 * 4096) 5 in
      File.write fs f ~off:0 data;
      (* migrate checkpoints internally; then crash without unmount *)
      ignore (Migrator.migrate_paths (Hl.state w.hl) [ "/crashy.dat" ]);
      let hl2 = Hl.mount engine ~disk:(Dev.of_store w.store) ~fp:w.fp ~cpu:Param.cpu_free () in
      let fs2 = Hl.fs hl2 in
      let f2 = Dir.namei fs2 "/crashy.dat" in
      check Alcotest.bytes "tertiary data survives crash" data
        (File.read fs2 f2 ~off:0 ~len:(12 * 4096)))

let test_end_of_medium_rehome () =
  in_sim (fun engine ->
      (* volumes really hold 4 segments but advertise 7 *)
      let w = make_world ~real_segs_per_vol:4 ~advertised_segs_per_vol:7 engine in
      let fs = Hl.fs w.hl in
      let f = Dir.create_file fs "/big.dat" in
      (* ~6 segments of data: overflows volume 0's real capacity *)
      let data = bytes_pattern (84 * 4096) 6 in
      File.write fs f ~off:0 data;
      ignore (Migrator.migrate_paths (Hl.state w.hl) [ "/big.dat" ]);
      let s = Hl.stats w.hl in
      check Alcotest.bool "rehomes occurred" true (s.Hl.rehomes > 0);
      check Alcotest.bool "volume 0 marked full" true (Footprint.volume_full w.fp 0);
      Hl.eject_tertiary_copies w.hl ~paths:[ "/big.dat" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      check Alcotest.bytes "data intact across volumes" data
        (File.read fs f ~off:0 ~len:(84 * 4096));
      check Alcotest.(list string) "hierarchy invariants" [] (Hl.check w.hl))

let test_cache_pressure_evicts () =
  in_sim (fun engine ->
      let w = make_world ~cache_segs:3 engine in
      let fs = Hl.fs w.hl in
      let paths = List.init 6 (fun i -> Printf.sprintf "/blob%d" i) in
      List.iteri
        (fun i p ->
          let f = Dir.create_file fs p in
          File.write fs f ~off:0 (bytes_pattern (12 * 4096) i))
        paths;
      ignore (Migrator.migrate_paths (Hl.state w.hl) paths);
      Hl.eject_tertiary_copies w.hl ~paths;
      Bcache.invalidate_clean (Fs.bcache fs);
      (* reading all six cycles the 3-line cache *)
      List.iteri
        (fun i p ->
          let ino = Dir.namei fs p in
          check Alcotest.bytes "blob content" (bytes_pattern (12 * 4096) i)
            (File.read fs ino ~off:0 ~len:(12 * 4096)))
        paths;
      let s = Hl.stats w.hl in
      check Alcotest.bool "evictions happened" true (s.Hl.cache_evictions > 0);
      check Alcotest.bool "cache within cap" true (s.Hl.cache_lines <= 3 + 1);
      check Alcotest.(list string) "hierarchy invariants" [] (Hl.check w.hl))

let test_update_migrated_block () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let st = Hl.state w.hl in
      let f = Dir.create_file fs "/mut.dat" in
      File.write fs f ~off:0 (bytes_pattern (8 * 4096) 7);
      ignore (Migrator.migrate_paths (Hl.state w.hl) [ "/mut.dat" ]);
      let live_before = State.tertiary_live_bytes st in
      (* overwrite two blocks: fresh data goes to the disk log *)
      File.write fs f ~off:4096 (bytes_pattern (2 * 4096) 99);
      Fs.flush fs;
      let addr = Fs.lookup_addr fs f (Bkey.Data 1) in
      check Alcotest.bool "updated block back on disk" true
        (Addr_space.is_disk st.State.aspace addr);
      check Alcotest.bool "tertiary live dropped" true
        (State.tertiary_live_bytes st < live_before);
      let expect = Bytes.copy (bytes_pattern (8 * 4096) 7) in
      Bytes.blit (bytes_pattern (2 * 4096) 99) 0 expect 4096 (2 * 4096);
      check Alcotest.bytes "merged view" expect (File.read fs f ~off:0 ~len:(8 * 4096)))

let test_unlink_migrated_file () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let st = Hl.state w.hl in
      let f = Dir.create_file fs "/gone.dat" in
      File.write fs f ~off:0 (bytes_pattern (10 * 4096) 8);
      ignore f;
      ignore (Migrator.migrate_paths (Hl.state w.hl) [ "/gone.dat" ]);
      let live_before = State.tertiary_live_bytes st in
      check Alcotest.bool "has tertiary live" true (live_before > 0);
      Dir.unlink fs "/gone.dat";
      check Alcotest.bool "tertiary space released" true
        (State.tertiary_live_bytes st < live_before / 4))

let test_tertiary_cleaner () =
  in_sim (fun engine ->
      let w = make_world ~nvolumes:3 ~real_segs_per_vol:6 ~advertised_segs_per_vol:6 engine in
      let fs = Hl.fs w.hl in
      let st = Hl.state w.hl in
      let paths = List.init 4 (fun i -> Printf.sprintf "/old%d" i) in
      List.iteri
        (fun i p ->
          let f = Dir.create_file fs p in
          File.write fs f ~off:0 (bytes_pattern (10 * 4096) i))
        paths;
      ignore (Migrator.migrate_paths (Hl.state w.hl) paths);
      (* delete most: volume 0 becomes mostly dead *)
      List.iteri (fun i p -> if i < 3 then Dir.unlink fs p) paths;
      Fs.flush fs;
      let vol = 0 in
      let live = Tertiary_cleaner.volume_live_bytes st vol in
      check Alcotest.bool "some live remains" true (live > 0);
      let r = Tertiary_cleaner.clean_volume st vol in
      check Alcotest.bool "scanned" true (r.Tertiary_cleaner.segments_scanned > 0);
      check Alcotest.bool "remigrated survivor" true (r.Tertiary_cleaner.blocks_remigrated > 0);
      (* the survivor is intact, served from its new home *)
      Hl.eject_tertiary_copies w.hl ~paths:[ "/old3" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      let ino = Dir.namei fs "/old3" in
      check Alcotest.bytes "survivor readable" (bytes_pattern (10 * 4096) 3)
        (File.read fs ino ~off:0 ~len:(10 * 4096));
      (* volume 0 is allocatable again *)
      check Alcotest.int "volume live zero" 0 (Tertiary_cleaner.volume_live_bytes st vol);
      check Alcotest.bool "volume reusable" true (not (Footprint.volume_full w.fp vol));
      check Alcotest.(list string) "hierarchy invariants" [] (Hl.check w.hl))

let test_prefetch_sequential () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      Hl.set_prefetch_sequential w.hl ~depth:1;
      let f = Dir.create_file fs "/stream.dat" in
      let data = bytes_pattern (40 * 4096) 9 in
      File.write fs f ~off:0 data;
      let tsegs = Migrator.migrate_paths (Hl.state w.hl) [ "/stream.dat" ] in
      Hl.eject_tertiary_copies w.hl ~paths:[ "/stream.dat" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      (* touch only the first block; the prefetcher should stage the next
         segment behind it *)
      ignore (File.read fs f ~off:0 ~len:4096);
      (* let the async prefetch drain *)
      Sim.Engine.delay 30.0;
      let sorted = List.sort compare tsegs in
      (match sorted with
      | first :: second :: _ ->
          check Alcotest.bool "first segment cached" true
            (Seg_cache.find (Hl.cache w.hl) first <> None);
          check Alcotest.bool "next segment prefetched" true
            (Seg_cache.find (Hl.cache w.hl) second <> None)
      | _ -> Alcotest.fail "expected multiple segments");
      check Alcotest.bytes "data intact" data (File.read fs f ~off:0 ~len:(40 * 4096)))

let test_self_contained_migration () =
  in_sim (fun engine ->
      (* partially fill volume 0 so a spanning batch would spill *)
      let w = make_world ~nvolumes:4 ~real_segs_per_vol:8 ~advertised_segs_per_vol:8 engine in
      let fs = Hl.fs w.hl in
      let st = Hl.state w.hl in
      let filler = Dir.create_file fs "/filler" in
      File.write fs filler ~off:0 (bytes_pattern (70 * 4096) 1);
      ignore (Migrator.migrate_paths st [ "/filler" ]) (* ~6 of vol0's 8 segments *);
      let f = Dir.create_file fs "/contained" in
      File.write fs f ~off:0 (bytes_pattern (40 * 4096) 2);
      ignore (Migrator.migrate_paths st ~self_contained:true [ "/contained" ]);
      (* every block of the file, its indirect block, and its inode sit
         on ONE volume (paper 8.2) *)
      let aspace = st.State.aspace in
      let vols = ref [] in
      let note addr =
        if Addr_space.is_tertiary aspace addr then
          vols :=
            fst (Addr_space.vol_seg_of_tindex aspace (Addr_space.tindex_of_addr aspace addr))
            :: !vols
      in
      File.iter_assigned_blocks (Fs.map fs) f (fun _ addr -> note addr);
      note (Imap.get (Fs.imap fs) f.Inode.inum).Imap.addr;
      let distinct = List.sort_uniq compare !vols in
      check Alcotest.int
        (Printf.sprintf "one volume (got %s)"
           (String.concat "," (List.map string_of_int distinct)))
        1 (List.length distinct);
      (* and the data still reads back after eviction *)
      Hl.eject_tertiary_copies w.hl ~paths:[ "/contained" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      check Alcotest.bytes "content" (bytes_pattern (40 * 4096) 2)
        (File.read fs (Dir.namei fs "/contained") ~off:0 ~len:(40 * 4096));
      check Alcotest.(list string) "invariants" [] (Hl.check w.hl))

let test_write_behind_deferred () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      let f = Dir.create_file fs "/deferred.dat" in
      let data = bytes_pattern (20 * 4096) 10 in
      File.write fs f ~off:0 data;
      (* no wait: staging segments queue for the I/O server *)
      ignore (Migrator.migrate_paths (Hl.state w.hl) ~wait:false [ "/deferred.dat" ]);
      (* data remains readable from the staging cache lines meanwhile *)
      check Alcotest.bytes "readable while queued" data (File.read fs f ~off:0 ~len:(20 * 4096));
      (* let the I/O server drain the queue *)
      Sim.Engine.delay 200.0;
      check Alcotest.bool "copies landed on tertiary" true ((Hl.stats w.hl).Hl.writeouts >= 2);
      Hl.eject_tertiary_copies w.hl ~paths:[ "/deferred.dat" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      check Alcotest.bytes "readable from jukebox" data (File.read fs f ~off:0 ~len:(20 * 4096)))

let prop_migration_model =
  QCheck.Test.make ~name:"random migrate/eject/read keeps data" ~count:12
    QCheck.(small_list (pair small_nat small_nat))
    (fun ops ->
      in_sim (fun engine ->
          let w = make_world ~nvolumes:4 engine in
          let fs = Hl.fs w.hl in
          let model = Hashtbl.create 8 in
          let paths = [| "/q0"; "/q1"; "/q2"; "/q3" |] in
          let ok = ref true in
          (try
             List.iter
               (fun (a, b) ->
                 let path = paths.(a mod 4) in
                 match b mod 5 with
                 | 0 | 1 ->
                     let len = 1 + (b * 977 mod (20 * 4096)) in
                     let data = bytes_pattern len (a + b) in
                     let f =
                       match Dir.namei_opt fs path with
                       | Some f -> f
                       | None -> Dir.create_file fs path
                     in
                     File.write fs f ~off:0 data;
                     let old = Option.value ~default:Bytes.empty (Hashtbl.find_opt model path) in
                     let merged =
                       if Bytes.length old <= len then data
                       else begin
                         let m = Bytes.copy old in
                         Bytes.blit data 0 m 0 len;
                         m
                       end
                     in
                     Hashtbl.replace model path merged
                 | 2 -> ignore (Migrator.migrate_paths (Hl.state w.hl) [ path ])
                 | 3 ->
                     Hl.eject_tertiary_copies w.hl ~paths:[ path ];
                     Bcache.invalidate_clean (Fs.bcache fs)
                 | 4 -> (
                     match Dir.namei_opt fs path with
                     | Some _ ->
                         Dir.unlink fs path;
                         Hashtbl.remove model path
                     | None -> ())
                 | _ -> assert false)
               ops
           with Fs.No_space | State.Tertiary_full -> ());
          Hashtbl.iter
            (fun path expected ->
              match Dir.namei_opt fs path with
              | None -> ok := false
              | Some f ->
                  if File.read fs f ~off:0 ~len:(Bytes.length expected) <> expected then
                    ok := false)
            model;
          !ok && Hl.check w.hl = []))

let props = [ prop_aspace_roundtrip; prop_migration_model ]

let suite =
  [
    ( "hl.addr_space",
      [
        Alcotest.test_case "partition" `Quick test_aspace_partition;
        Alcotest.test_case "volume order (Fig 4)" `Quick test_aspace_volume_order;
      ] );
    ( "hl.seg_cache",
      [
        Alcotest.test_case "basics" `Quick test_seg_cache_basics;
        Alcotest.test_case "lru policy" `Quick test_seg_cache_lru_policy;
        Alcotest.test_case "staging protected" `Quick test_seg_cache_staging_protected;
        Alcotest.test_case "least-worthy policy" `Quick test_seg_cache_least_worthy;
        Alcotest.test_case "retag" `Quick test_seg_cache_retag;
      ] );
    ( "hl.migration",
      [
        Alcotest.test_case "migrate and read back" `Quick test_migrate_and_read_back;
        Alcotest.test_case "demand fetch after eject" `Quick test_demand_fetch_after_eject;
        Alcotest.test_case "second read hits cache" `Quick test_second_read_hits_cache;
        Alcotest.test_case "inodes and directories migrate" `Quick test_migrate_inodes_and_dirs;
        Alcotest.test_case "update of migrated block" `Quick test_update_migrated_block;
        Alcotest.test_case "unlink releases tertiary space" `Quick test_unlink_migrated_file;
        Alcotest.test_case "write-behind (deferred copy-out)" `Quick test_write_behind_deferred;
        Alcotest.test_case "self-contained volume placement" `Quick
          test_self_contained_migration;
      ] );
    ( "hl.durability",
      [
        Alcotest.test_case "remount after migration" `Quick test_remount_after_migration;
        Alcotest.test_case "crash after migration" `Quick test_crash_after_migration;
      ] );
    ( "hl.capacity",
      [
        Alcotest.test_case "end-of-medium rehome" `Quick test_end_of_medium_rehome;
        Alcotest.test_case "cache pressure evicts" `Quick test_cache_pressure_evicts;
        Alcotest.test_case "tertiary cleaner" `Quick test_tertiary_cleaner;
        Alcotest.test_case "sequential prefetch" `Quick test_prefetch_sequential;
      ] );
    ( "hl.stats_view",
      [
        Alcotest.test_case "stats read the registry" `Quick test_stats_view;
        Alcotest.test_case "State.t below 33 fields" `Quick test_state_size;
      ] );
    ("hl.properties", List.map QCheck_alcotest.to_alcotest props);
  ]
