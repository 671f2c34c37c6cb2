(* Cross-cutting and failure-injection tests: remount with a warm
   segment cache, multi-jukebox address spaces, WORM media, RPC-mode
   Footprint, a concatenated disk farm, cache-floor placement, and the
   cleaner's no-progress guard. *)

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

let mk_store prm = Device.Blockstore.create ~block_size:4096 ~nblocks:(Layout.disk_blocks prm)

let mk_jb ?(drives = 2) ?(nvolumes = 4) ?(segs = 8) ?(media = Device.Jukebox.hp6300_platter)
    engine name =
  Device.Jukebox.create engine ~drives ~nvolumes ~vol_capacity:(segs * 16) ~media
    ~changer:Device.Jukebox.hp6300_changer name

let test_remount_keeps_cache_lines () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:48 () in
      let store = mk_store prm in
      let jb = mk_jb engine "jb" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp () in
      let fs = Hl.fs hl in
      let f = Dir.create_file fs "/warm" in
      let data = bytes_pattern (20 * 4096) 1 in
      File.write fs f ~off:0 data;
      ignore (Migrator.migrate_paths (Hl.state hl) [ "/warm" ]);
      let lines_before = Seg_cache.length (Hl.cache hl) in
      check Alcotest.bool "cache warm before unmount" true (lines_before > 0);
      Hl.unmount hl;
      let hl2 = Hl.mount engine ~disk:(Dev.of_store store) ~fp ~cpu:Param.cpu_free () in
      (* the cache directory is rebuilt from the segusage cache tags *)
      check Alcotest.int "cache directory reconstructed" lines_before
        (Seg_cache.length (Hl.cache hl2));
      let fetches = (Hl.stats hl2).Hl.demand_fetches in
      let f2 = Dir.namei (Hl.fs hl2) "/warm" in
      check Alcotest.bytes "served from reconstructed cache" data
        (File.read (Hl.fs hl2) f2 ~off:0 ~len:(20 * 4096));
      check Alcotest.int "no demand fetch needed" fetches (Hl.stats hl2).Hl.demand_fetches;
      check Alcotest.(list string) "invariants" [] (Hl.check hl2))

let test_multi_jukebox_footprint () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:48 () in
      let store = mk_store prm in
      let jb1 = mk_jb engine ~nvolumes:2 "jb1" in
      let jb2 = mk_jb engine ~nvolumes:3 "jb2" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb1; jb2 ] in
      check Alcotest.int "volumes pooled" 5 (Footprint.nvolumes fp);
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp () in
      let fs = Hl.fs hl in
      (* enough data to overflow jb1's two volumes into jb2 *)
      let paths = List.init 8 (fun i -> Printf.sprintf "/big%d" i) in
      List.iteri
        (fun i p ->
          let f = Dir.create_file fs p in
          File.write fs f ~off:0 (bytes_pattern (30 * 4096) i))
        paths;
      ignore (Migrator.migrate_paths (Hl.state hl) paths);
      check Alcotest.bool "spilled into the second jukebox" true
        (Device.Jukebox.bytes_written jb2 > 0);
      Hl.eject_tertiary_copies hl ~paths;
      Bcache.invalidate_clean (Fs.bcache fs);
      List.iteri
        (fun i p ->
          let ino = Dir.namei fs p in
          check Alcotest.bytes "content across jukeboxes" (bytes_pattern (30 * 4096) i)
            (File.read fs ino ~off:0 ~len:(30 * 4096)))
        paths;
      check Alcotest.(list string) "invariants" [] (Hl.check hl))

let test_worm_highlight () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:48 () in
      let store = mk_store prm in
      let jb = mk_jb engine ~media:Device.Jukebox.sony_worm "worm" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp () in
      let fs = Hl.fs hl in
      let f = Dir.create_file fs "/immutable" in
      let data = bytes_pattern (10 * 4096) 5 in
      File.write fs f ~off:0 data;
      ignore (Migrator.migrate_paths (Hl.state hl) [ "/immutable" ]);
      Hl.eject_tertiary_copies hl ~paths:[ "/immutable" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      check Alcotest.bytes "worm readback" data (File.read fs f ~off:0 ~len:(10 * 4096));
      (* the tertiary cleaner must refuse to erase WORM media *)
      Dir.unlink fs "/immutable";
      Fs.flush fs;
      check Alcotest.bool "worm volume cannot be cleaned" true
        (try
           ignore (Tertiary_cleaner.clean_volume (Hl.state hl) 0);
           false
         with Invalid_argument _ -> true))

let test_footprint_rpc_latency () =
  in_sim (fun engine ->
      let jb = mk_jb engine "jb" in
      let local = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let seg = Device.Blockstore.create ~block_size:4096 ~nblocks:16 in
      Device.Blockstore.write seg ~blk:0 (Bytes.create (16 * 4096));
      let chunk ~off:_ ~blocks:_ = () in
      let round_trip fp =
        ignore (Footprint.write_seg_stream_from fp ~vol:0 ~seg:0 ~src:seg ~src_blk:0 chunk);
        let t0 = Sim.Engine.now engine in
        Footprint.read_seg_stream_into fp ~vol:0 ~seg:0 ~dst:seg chunk;
        Sim.Engine.now engine -. t0
      in
      let local_time = round_trip local in
      let jb2 = mk_jb engine "jb2" in
      let remote = Footprint.create ~rpc_latency:0.5 ~seg_blocks:16 ~segs_per_volume:8 [ jb2 ] in
      let remote_time = round_trip remote in
      check Alcotest.bool
        (Printf.sprintf "rpc adds latency (%.2f vs %.2f)" local_time remote_time)
        true
        (remote_time > local_time +. 0.4))

let test_concat_disk_farm () =
  in_sim (fun engine ->
      (* two small disks concatenated into one HighLight farm *)
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:30 () in
      let half = Layout.disk_blocks prm / 2 in
      let d0 = Device.Disk.create engine ~nblocks:half Device.Disk.rz57 ~name:"d0" in
      let d1 = Device.Disk.create engine ~nblocks:(Layout.disk_blocks prm - half)
                 Device.Disk.rz58 ~name:"d1" in
      let farm = Device.Concat.concat [ d0; d1 ] in
      let jb = mk_jb engine "jb" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_concat farm) ~fp () in
      let fs = Hl.fs hl in
      (* fill past the first spindle so data spans both *)
      let paths = List.init 24 (fun i -> Printf.sprintf "/span%d" i) in
      List.iteri
        (fun i p ->
          let f = Dir.create_file fs p in
          File.write fs f ~off:0 (bytes_pattern (12 * 4096) i))
        paths;
      Fs.checkpoint fs;
      check Alcotest.bool "second spindle in use" true (Device.Disk.bytes_written d1 > 0);
      (* place cache/staging lines on the second spindle only *)
      Fs.set_cache_floor fs (half / 16);
      ignore (Migrator.migrate_paths (Hl.state hl) [ "/span0"; "/span1" ]);
      Seg_cache.iter (Hl.cache hl) (fun line ->
          check Alcotest.bool "cache line on second spindle" true
            (line.Seg_cache.disk_seg >= (half / 16) - 1));
      Bcache.invalidate_clean (Fs.bcache fs);
      List.iteri
        (fun i p ->
          let ino = Dir.namei fs p in
          check Alcotest.bytes "farm content" (bytes_pattern (12 * 4096) i)
            (File.read fs ino ~off:0 ~len:(12 * 4096)))
        paths;
      check Alcotest.(list string) "fsck" [] (Debug.fsck fs))

let test_cleaner_no_gain_guard () =
  (* a disk full of live data: cleaning must terminate, not shuffle *)
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs:24 () in
  let engine = Sim.Engine.create () in
  let store = mk_store prm in
  let fs = Fs.mkfs engine prm (Dev.of_store store) () in
  (try
     for i = 0 to 40 do
       let f = Dir.create_file fs (Printf.sprintf "/full%d" i) in
       File.write fs f ~off:0 (bytes_pattern (10 * 4096) i)
     done
   with Fs.No_space -> ());
  let r = Cleaner.clean_until fs ~target_clean:20 () in
  (* termination is the point; it may clean a little or nothing *)
  check Alcotest.bool "terminates" true (r.Cleaner.segments_cleaned >= 0);
  check Alcotest.(list string) "consistent afterwards" [] (Fs.check fs)

let test_drop_caches_semantics () =
  let prm = Param.for_tests () in
  let engine = Sim.Engine.create () in
  let store = mk_store prm in
  let fs = Fs.mkfs engine prm (Dev.of_store store) () in
  let f = Dir.create_file fs "/cached" in
  File.write fs f ~off:0 (bytes_pattern 8192 3);
  Fs.drop_caches fs;
  check Alcotest.int "no dirty blocks survive" 0 (Bcache.dirty_count (Fs.bcache fs));
  check Alcotest.int "no clean blocks survive" 0 (Bcache.clean_count (Fs.bcache fs));
  (* the stale in-core inode must be re-fetched, not reused *)
  let f2 = Dir.namei fs "/cached" in
  check Alcotest.bool "fresh inode object" true (not (f == f2));
  check Alcotest.bytes "content via fresh caches" (bytes_pattern 8192 3)
    (File.read fs f2 ~off:0 ~len:8192)

let test_stp_eligible_filter () =
  let prm = Param.for_tests () in
  let engine = Sim.Engine.create () in
  let store = mk_store prm in
  let fs = Fs.mkfs engine prm (Dev.of_store store) () in
  let a = Dir.create_file fs "/a" in
  File.write fs a ~off:0 (bytes_pattern 4096 1);
  let b = Dir.create_file fs "/b" in
  File.write fs b ~off:0 (bytes_pattern 4096 2);
  Sim.Engine.run_until engine 1000.0;
  let all = Policy.Stp.select fs { Policy.Stp.default with Policy.Stp.min_idle = 0.0 }
      ~target_bytes:max_int in
  check Alcotest.bool "both selected" true
    (List.mem a.Inode.inum all && List.mem b.Inode.inum all);
  let only_b =
    Policy.Stp.select fs ~eligible:(fun inum -> inum = b.Inode.inum)
      { Policy.Stp.default with Policy.Stp.min_idle = 0.0 }
      ~target_bytes:max_int
  in
  check Alcotest.(list int) "filter applied" [ b.Inode.inum ] only_b

let test_corrupt_tertiary_summary_scan () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:48 () in
      let store = mk_store prm in
      let jb = mk_jb engine "jb" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp () in
      let fs = Hl.fs hl in
      let f = Dir.create_file fs "/victim" in
      File.write fs f ~off:0 (bytes_pattern (10 * 4096) 9);
      ignore (Migrator.migrate_paths (Hl.state hl) [ "/victim" ]);
      (* clobber the summary block of the first tertiary segment on the
         medium itself *)
      let st = Hl.state hl in
      let store0 = Device.Jukebox.volume_store jb 0 in
      Device.Blockstore.write store0 ~blk:0 (Bytes.make 4096 '!');
      (* the tertiary cleaner scan must survive the garbage and simply
         find nothing live in that segment *)
      Dir.unlink fs "/victim";
      Fs.flush fs;
      let r = Tertiary_cleaner.clean_volume st 0 in
      check Alcotest.bool "scan survived corruption" true
        (r.Tertiary_cleaner.segments_scanned >= 1))

(* --- Jaquith (the bake-off comparator) --- *)

let test_jaquith_roundtrip () =
  in_sim (fun engine ->
      let jb = mk_jb engine ~nvolumes:3 ~segs:4 "tape" in
      let arch = Jaquith.create engine jb in
      let a = bytes_pattern 10000 1 in
      let b = bytes_pattern 70000 2 in
      Jaquith.store arch ~name:"alpha" a;
      Jaquith.store arch ~name:"beta" b;
      check Alcotest.bytes "alpha back" a (Jaquith.fetch arch ~name:"alpha");
      check Alcotest.bytes "beta back" b (Jaquith.fetch arch ~name:"beta");
      check Alcotest.(list (pair string int)) "catalog"
        [ ("alpha", 10000); ("beta", 70000) ]
        (Jaquith.catalog arch);
      check Alcotest.bool "missing raises" true
        (try ignore (Jaquith.fetch arch ~name:"nope"); false
         with Jaquith.Unknown_file _ -> true))

let test_jaquith_supersede_and_delete () =
  in_sim (fun engine ->
      let jb = mk_jb engine ~nvolumes:3 ~segs:4 "tape" in
      let arch = Jaquith.create engine jb in
      Jaquith.store arch ~name:"x" (bytes_pattern 5000 1);
      Jaquith.store arch ~name:"x" (bytes_pattern 6000 2);
      check Alcotest.bytes "newest wins" (bytes_pattern 6000 2) (Jaquith.fetch arch ~name:"x");
      check Alcotest.int "old copy is garbage" 5000 (Jaquith.garbage_bytes arch);
      Jaquith.delete arch ~name:"x";
      check Alcotest.bool "gone" true (not (Jaquith.exists arch "x"));
      check Alcotest.int "all garbage now" 11000 (Jaquith.garbage_bytes arch))

let test_jaquith_volume_spill () =
  in_sim (fun engine ->
      (* volumes hold 4 segs x 16 blocks = 256 KB *)
      let jb = mk_jb engine ~nvolumes:3 ~segs:4 "tape" in
      let arch = Jaquith.create engine jb in
      for i = 0 to 4 do
        Jaquith.store arch ~name:(Printf.sprintf "f%d" i) (bytes_pattern (100 * 1024) i)
      done;
      check Alcotest.bool "spilled volumes" true (Jaquith.volumes_used arch >= 2);
      for i = 0 to 4 do
        check Alcotest.bytes "all readable" (bytes_pattern (100 * 1024) i)
          (Jaquith.fetch arch ~name:(Printf.sprintf "f%d" i))
      done;
      check Alcotest.bool "oversized rejected" true
        (try ignore (Jaquith.store arch ~name:"huge" (Bytes.create (10 * 1024 * 1024))); false
         with Invalid_argument _ -> true))

let test_lfs_grow () =
  (* a device with headroom; the file system grows into it on-line *)
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs:12 () in
  let engine = Sim.Engine.create () in
  let store =
    Device.Blockstore.create ~block_size:4096
      ~nblocks:(Layout.disk_blocks { prm with Param.nsegs = 40 })
  in
  let fs = Fs.mkfs engine prm (Dev.of_store store) () in
  (* fill close to capacity *)
  let wrote = ref 0 in
  (try
     for i = 0 to 20 do
       let f = Dir.create_file fs (Printf.sprintf "/pre%d" i) in
       File.write fs f ~off:0 (bytes_pattern (8 * 4096) i);
       incr wrote
     done
   with Fs.No_space -> ());
  check Alcotest.bool "hit the old capacity" true (!wrote < 21);
  Fs.grow fs ~added_segs:28 ();
  check Alcotest.int "geometry grew" 40 (Fs.param fs).Param.nsegs;
  (* now the rest fits (the file that hit ENOSPC already exists) *)
  for i = !wrote to 20 do
    let path = Printf.sprintf "/pre%d" i in
    let f =
      match Dir.namei_opt fs path with Some f -> f | None -> Dir.create_file fs path
    in
    File.write fs f ~off:0 (bytes_pattern (8 * 4096) i)
  done;
  Fs.checkpoint fs;
  (* everything readable, and the growth survives a remount *)
  let fs2 = Fs.mount (Sim.Engine.create ()) ~cpu:Param.cpu_free (Dev.of_store store) in
  check Alcotest.int "nsegs persisted" 40 (Fs.param fs2).Param.nsegs;
  for i = 0 to 20 do
    let f = Dir.namei fs2 (Printf.sprintf "/pre%d" i) in
    check Alcotest.bytes "content" (bytes_pattern (8 * 4096) i)
      (File.read fs2 f ~off:0 ~len:(8 * 4096))
  done;
  check Alcotest.(list string) "fsck" [] (Debug.fsck fs2)

let test_hl_grow_disk () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:12 () in
      let store =
        Device.Blockstore.create ~block_size:4096
          ~nblocks:(Layout.disk_blocks { prm with Param.nsegs = 30 })
      in
      let jb = mk_jb engine "jb" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp () in
      let fs = Hl.fs hl in
      let f = Dir.create_file fs "/before" in
      File.write fs f ~off:0 (bytes_pattern (6 * 4096) 1);
      ignore (Migrator.migrate_paths (Hl.state hl) [ "/before" ]);
      (* claim part of the dead zone *)
      Hl.grow_disk hl ~added_segs:18 ();
      check Alcotest.int "grown" 30 (Fs.param fs).Param.nsegs;
      let g = Dir.create_file fs "/after" in
      File.write fs g ~off:0 (bytes_pattern (40 * 4096) 2);
      Fs.checkpoint fs;
      (* tertiary data still resolves after the address-map change *)
      Hl.eject_tertiary_copies hl ~paths:[ "/before" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      check Alcotest.bytes "old tertiary data" (bytes_pattern (6 * 4096) 1)
        (File.read fs (Dir.namei fs "/before") ~off:0 ~len:(6 * 4096));
      check Alcotest.bytes "new data in grown region" (bytes_pattern (40 * 4096) 2)
        (File.read fs (Dir.namei fs "/after") ~off:0 ~len:(40 * 4096));
      check Alcotest.(list string) "invariants" [] (Hl.check hl);
      (* growth must not collide with the tertiary range *)
      check Alcotest.bool "dead zone exhaustion rejected" true
        (try
           Hl.grow_disk hl ~added_segs:100000 ();
           false
         with Invalid_argument _ -> true))

let test_fetch_notifier () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:48 () in
      let store = mk_store prm in
      let jb = mk_jb engine "jb" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp () in
      let fs = Hl.fs hl in
      let events = ref [] in
      ignore
        (State.subscribe (Hl.state hl) (function
           | (State.Fetch_started _ | State.Fetch_landed _) as e ->
               events := (e, Sim.Engine.now engine) :: !events
           | _ -> ())
          : unit -> unit);
      let f = Dir.create_file fs "/slow" in
      File.write fs f ~off:0 (bytes_pattern (10 * 4096) 4);
      ignore (Migrator.migrate_paths (Hl.state hl) [ "/slow" ]);
      Hl.eject_tertiary_copies hl ~paths:[ "/slow" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      check Alcotest.(list string) "quiet before the read" []
        (List.map (fun _ -> "event") !events);
      ignore (File.read fs f ~off:0 ~len:4096);
      (* streaming fetches unblock the reader at its block's chunk; the
         completion notification fires when the segment lands on the
         cache disk, shortly after — let that background phase finish *)
      Sim.Engine.delay 120.0;
      let started, completed =
        List.fold_left
          (fun (s, c) (e, _) ->
            match e with
            | State.Fetch_started _ -> (s + 1, c)
            | State.Fetch_landed _ -> (s, c + 1)
            | _ -> (s, c))
          (0, 0) !events
      in
      check Alcotest.bool "hold-on message sent" true (started >= 1);
      check Alcotest.bool "completion follows" true (completed >= 1);
      (* the start strictly precedes the completion in time *)
      let times = List.rev_map snd !events in
      check Alcotest.bool "ordered" true
        (match times with t1 :: t2 :: _ -> t2 >= t1 | _ -> false))

(* Two fetch subscribers and a rearranger share one instance: each
   hears every fetch start and landing, and an unsubscribed listener
   hears nothing more. *)
let test_subscriptions_compose () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:48 () in
      let jb = mk_jb engine "jb" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store (mk_store prm)) ~fp () in
      let fs = Hl.fs hl in
      let st = Hl.state hl in
      let listener () =
        let started = ref [] and landed = ref [] in
        let unsubscribe =
          State.subscribe st (function
            | State.Fetch_started t -> started := t :: !started
            | State.Fetch_landed t -> landed := t :: !landed
            | _ -> ())
        in
        ((fun () -> (List.sort compare !started, List.sort compare !landed)), unsubscribe)
      in
      let heard_a, stop_a = listener () in
      let rearranger = Policy.Rearrange.create ~window:1000.0 ~min_group:1 st in
      let stop_rearranger = Policy.Rearrange.install rearranger in
      let heard_b, stop_b = listener () in
      let f = Dir.create_file fs "/slow" in
      File.write fs f ~off:0 (bytes_pattern (40 * 4096) 6);
      let tsegs = Migrator.migrate_paths st [ "/slow" ] in
      let cold_read () =
        Hl.eject_tertiary_copies hl ~paths:[ "/slow" ];
        Bcache.invalidate_clean (Fs.bcache fs);
        ignore (File.read fs f ~off:0 ~len:(40 * 4096));
        (* let the last landing finish behind the streaming reader *)
        Sim.Engine.delay 120.0
      in
      cold_read ();
      let ((started, landed) as a) = heard_a () in
      check Alcotest.bool "the read fetched migrated segments" true
        (started <> [] && List.for_all (fun t -> List.mem t tsegs) started);
      check Alcotest.(list int) "each start lands" started landed;
      check Alcotest.(pair (list int) (list int)) "second subscriber hears the same" a (heard_b ());
      check Alcotest.(list int) "rearranger sees the landings" landed
        (List.sort compare (List.concat (Policy.Rearrange.pending_groups rearranger)));
      stop_a ();
      stop_a ();
      cold_read ();
      check Alcotest.(pair (list int) (list int)) "unsubscribed: nothing more" a (heard_a ());
      let started_b, landed_b = heard_b () in
      check Alcotest.int "still subscribed: twice the starts" (2 * List.length started)
        (List.length started_b);
      check Alcotest.int "still subscribed: twice the landings" (2 * List.length landed)
        (List.length landed_b);
      stop_b ();
      stop_rearranger ())

let test_concurrent_processes () =
  (* two writers, a reader, a cleaner daemon and an automigration daemon
     all share one instance, interleaving at every device operation *)
  let engine = Sim.Engine.create () in
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs:40 () in
  let prm = { prm with Param.cpu = Param.cpu_1993 } in
  let store = mk_store prm in
  let jb = mk_jb engine ~nvolumes:6 ~segs:16 "jb" in
  let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:16 [ jb ] in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Sim.Engine.spawn engine (fun () ->
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:8 () in
      let fs = Hl.fs hl in
      let st = Hl.state hl in
      let stop_cleaner =
        Cleaner.spawn_daemon fs ~period:7.0 ~low_water:10 ~high_water:16 ()
      in
      let stop_migrator =
        Policy.Automigrate.spawn st ~period:11.0
          ~policy:(Policy.Automigrate.stp_policy
                     { Policy.Stp.default with Policy.Stp.min_idle = 20.0 })
          ~low_water:20 ~high_water:28 ()
      in
      let expected : (string, Bytes.t) Hashtbl.t = Hashtbl.create 32 in
      let writer id =
        Sim.Engine.spawn engine (fun () ->
            let rng = Util.Rng.create (100 + id) in
            for round = 0 to 24 do
              let path = Printf.sprintf "/w%d_%d" id (round mod 6) in
              let data = bytes_pattern (4096 * (1 + Util.Rng.int rng 8)) (id + round) in
              (try
                 (match Dir.namei_opt fs path with
                 | Some f -> File.write fs f ~off:0 data
                 | None -> File.write fs (Dir.create_file fs path) ~off:0 data);
                 Hashtbl.replace expected path data
               with Fs.No_space -> ());
              Sim.Engine.delay (1.0 +. Util.Rng.float rng 3.0)
            done)
      in
      writer 1;
      writer 2;
      Sim.Engine.spawn engine (fun () ->
          let rng = Util.Rng.create 55 in
          for _ = 0 to 60 do
            Sim.Engine.delay (0.5 +. Util.Rng.float rng 2.0);
            let path = Printf.sprintf "/w%d_%d" (1 + Util.Rng.int rng 2) (Util.Rng.int rng 6) in
            match (Dir.namei_opt fs path, Hashtbl.find_opt expected path) with
            | Some f, Some want ->
                let got = File.read fs f ~off:0 ~len:(Bytes.length want) in
                (* the writer may race us with a newer version; compare
                   against the table as of the read's completion *)
                let want_now =
                  Option.value ~default:want (Hashtbl.find_opt expected path)
                in
                if
                  Bytes.length got = Bytes.length want_now
                  && not (Bytes.equal got want_now)
                  && not (Bytes.equal got want)
                then fail "reader saw torn data in %s" path
            | _ -> ()
          done);
      (* let everything run for a simulated two minutes, then stop *)
      Sim.Engine.delay 130.0;
      stop_cleaner ();
      stop_migrator ();
      Sim.Engine.delay 20.0;
      Fs.checkpoint fs;
      Hashtbl.iter
        (fun path want ->
          match Dir.namei_opt fs path with
          | None -> fail "file %s vanished" path
          | Some f ->
              if not (Bytes.equal (File.read fs f ~off:0 ~len:(Bytes.length want)) want) then
                fail "file %s corrupted" path)
        expected;
      List.iter (fun p -> fail "invariant: %s" p) (Hl.check hl);
      List.iter (fun p -> fail "fsck: %s" p) (Debug.fsck fs));
  Sim.Engine.run engine;
  check Alcotest.(list string) "no failures" [] (List.rev !failures)

(* --- rendering / introspection smoke tests --- *)

let test_renderings () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:24 () in
      let store = mk_store prm in
      let jb = mk_jb engine "jb" in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:4 () in
      let fs = Hl.fs hl in
      let f = Dir.create_file fs "/shown" in
      File.write fs f ~off:0 (bytes_pattern (20 * 4096) 3);
      ignore (Migrator.migrate_paths (Hl.state hl) [ "/shown" ]);
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      let map = Debug.render_map fs in
      check Alcotest.int "one char per segment" prm.Param.nsegs (String.length map);
      check Alcotest.bool "active marker" true (String.contains map 'A');
      check Alcotest.bool "cached marker" true (String.contains map 'C');
      let segs = Debug.render_segments ~limit:4 fs in
      check Alcotest.bool "segment detail names inodes" true (contains segs "ino");
      check Alcotest.bool "stats mention hits" true (contains (Debug.render_stats fs) "hits");
      let hier = Hl_debug.render_hierarchy hl in
      check Alcotest.bool "hierarchy shows jukebox" true (contains hier "jukebox");
      let layout = Hl_debug.render_layout hl in
      check Alcotest.bool "layout shows cache lines" true (contains layout "tertiary seg");
      let amap = Hl_debug.render_address_map hl in
      check Alcotest.bool "address map shows dead zone" true (contains amap "dead zone");
      check Alcotest.bool "address map shows volumes" true (contains amap "tertiary volume");
      let arch = Hl_debug.render_architecture hl in
      check Alcotest.bool "architecture shows counters" true (contains arch "demand fetches"))

let test_tablefmt () =
  (* printing goes to stdout; just exercise construction and helpers *)
  let t = Util.Tablefmt.create ~title:"t" ~header:[ "a"; "b" ] in
  Util.Tablefmt.add_row t [ "1"; "2" ];
  Util.Tablefmt.add_sep t;
  Util.Tablefmt.add_row t [ "3" ] (* short rows are padded *);
  check Alcotest.string "kb/s formatting" "204KB/s" (Util.Tablefmt.kb_s (204.0 *. 1024.0));
  check Alcotest.string "seconds" "13.41 s" (Util.Tablefmt.seconds 13.41);
  check Alcotest.string "ratio" "x0.50" (Util.Tablefmt.ratio ~measured:1.0 ~paper:2.0);
  check Alcotest.string "ratio div0" "n/a" (Util.Tablefmt.ratio ~measured:1.0 ~paper:0.0)

let suite =
  [
    ( "extra.durability",
      [
        Alcotest.test_case "remount keeps cache lines" `Quick test_remount_keeps_cache_lines;
        Alcotest.test_case "drop_caches semantics" `Quick test_drop_caches_semantics;
      ] );
    ( "extra.devices",
      [
        Alcotest.test_case "multi-jukebox footprint" `Quick test_multi_jukebox_footprint;
        Alcotest.test_case "WORM media end to end" `Quick test_worm_highlight;
        Alcotest.test_case "footprint RPC latency" `Quick test_footprint_rpc_latency;
        Alcotest.test_case "concatenated disk farm + cache floor" `Quick test_concat_disk_farm;
      ] );
    ( "extra.robustness",
      [
        Alcotest.test_case "cleaner no-gain guard" `Quick test_cleaner_no_gain_guard;
        Alcotest.test_case "corrupt tertiary summary" `Quick test_corrupt_tertiary_summary_scan;
      ] );
    ( "extra.rendering",
      [
        Alcotest.test_case "live renderings" `Quick test_renderings;
        Alcotest.test_case "table formatter" `Quick test_tablefmt;
      ] );
    ( "extra.policy",
      [ Alcotest.test_case "stp eligible filter" `Quick test_stp_eligible_filter ] );
    ( "extra.jaquith",
      [
        Alcotest.test_case "store/fetch roundtrip" `Quick test_jaquith_roundtrip;
        Alcotest.test_case "supersede and delete" `Quick test_jaquith_supersede_and_delete;
        Alcotest.test_case "volume spill" `Quick test_jaquith_volume_spill;
      ] );
    ( "extra.notifier",
      [
        Alcotest.test_case "hold-on notification agent" `Quick test_fetch_notifier;
        Alcotest.test_case "subscriptions compose" `Quick test_subscriptions_compose;
      ] );
    ( "extra.concurrency",
      [ Alcotest.test_case "daemons + writers + reader" `Quick test_concurrent_processes ] );
    ( "extra.growth",
      [
        Alcotest.test_case "LFS on-line growth" `Quick test_lfs_grow;
        Alcotest.test_case "HighLight dead-zone growth" `Quick test_hl_grow_disk;
      ] );
  ]
