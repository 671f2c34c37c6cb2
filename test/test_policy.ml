open Lfs
open Policy

let check = Alcotest.check

let in_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "sim process did not finish"

let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let fresh_fs ?(prm = Param.for_tests ~nsegs:64 ()) () =
  let engine = Sim.Engine.create () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size ~nblocks:(Layout.disk_blocks prm)
  in
  (Fs.mkfs engine prm (Dev.of_store store) (), engine)

(* --- STP --- *)

let test_stp_score_monotone () =
  let p = Stp.default in
  check Alcotest.bool "older scores higher" true
    (Stp.score p ~now:100.0 ~atime:10.0 ~size:1000
    > Stp.score p ~now:100.0 ~atime:90.0 ~size:1000);
  check Alcotest.bool "bigger scores higher" true
    (Stp.score p ~now:100.0 ~atime:10.0 ~size:2000
    > Stp.score p ~now:100.0 ~atime:10.0 ~size:1000)

let test_stp_ranking_and_select () =
  let fs, engine = fresh_fs () in
  (* three files with different idle times and sizes *)
  let mk path size =
    let f = Dir.create_file fs path in
    File.write fs f ~off:0 (bytes_pattern size 1);
    f
  in
  let old_big = mk "/old_big" 40960 in
  Sim.Engine.run_until engine 1000.0;
  let _mid = mk "/mid" 40960 in
  Sim.Engine.run_until engine 1900.0;
  let recent = mk "/recent" 40960 in
  ignore recent;
  Sim.Engine.run_until engine 2000.0;
  (* make /recent genuinely recent *)
  ignore (File.read fs (Dir.namei fs "/recent") ~off:0 ~len:100);
  let ranked = Stp.rank fs { Stp.default with Stp.min_idle = 0.0 } in
  (match ranked with
  | (top, _) :: _ -> check Alcotest.int "oldest biggest first" old_big.Inode.inum top
  | [] -> Alcotest.fail "empty ranking");
  (* min_idle excludes the just-read file *)
  let sel = Stp.select fs { Stp.default with Stp.min_idle = 50.0 } ~target_bytes:1_000_000 in
  check Alcotest.bool "recent excluded" true
    (not (List.mem (Dir.namei fs "/recent").Inode.inum sel));
  (* byte target truncates selection *)
  let sel1 = Stp.select fs { Stp.default with Stp.min_idle = 0.0 } ~target_bytes:1 in
  check Alcotest.int "one file suffices" 1 (List.length sel1)

(* Edge cases of the score function: empty files, clock skew (future
   atime), degenerate exponents. *)
let test_stp_score_edges () =
  let p = Stp.default in
  (* zero-size files clamp to size 1, not 0: idle time still ranks them *)
  check (Alcotest.float 1e-9) "zero size = size 1" (Stp.score p ~now:100.0 ~atime:0.0 ~size:1)
    (Stp.score p ~now:100.0 ~atime:0.0 ~size:0);
  check Alcotest.bool "zero size still positive" true
    (Stp.score p ~now:100.0 ~atime:0.0 ~size:0 > 0.0);
  (* an atime in the future (clock skew) clamps idle to 0, never NaN *)
  let future = Stp.score p ~now:100.0 ~atime:200.0 ~size:4096 in
  check (Alcotest.float 0.0) "future atime scores 0" 0.0 future;
  check Alcotest.bool "future atime not NaN" false (Float.is_nan future);
  (* exponent 0 switches that dimension off entirely *)
  let size_only = { p with Stp.time_exp = 0.0 } in
  check (Alcotest.float 1e-9) "time_exp 0: idle irrelevant"
    (Stp.score size_only ~now:100.0 ~atime:0.0 ~size:4096)
    (Stp.score size_only ~now:100.0 ~atime:99.0 ~size:4096);
  let time_only = { p with Stp.size_exp = 0.0 } in
  check (Alcotest.float 1e-9) "size_exp 0: size irrelevant"
    (Stp.score time_only ~now:100.0 ~atime:0.0 ~size:4096)
    (Stp.score time_only ~now:100.0 ~atime:0.0 ~size:400000)

let test_stp_min_idle_boundary () =
  let fs, engine = fresh_fs () in
  let f = Dir.create_file fs "/f" in
  File.write fs f ~off:0 (bytes_pattern 4096 1);
  Sim.Engine.run_until engine 1000.0;
  let atime = (Imap.get (Fs.imap fs) f.Inode.inum).Imap.atime in
  let idle = Fs.now fs -. atime in
  (* exactly at the threshold: idle >= min_idle admits the file *)
  let at = Stp.rank fs { Stp.default with Stp.min_idle = idle } in
  check Alcotest.bool "idle = min_idle included" true
    (List.mem_assoc f.Inode.inum at);
  (* just above: excluded *)
  let above = Stp.rank fs { Stp.default with Stp.min_idle = idle +. 0.001 } in
  check Alcotest.bool "idle < min_idle excluded" false
    (List.mem_assoc f.Inode.inum above)

let test_stp_rank_tie_determinism () =
  (* identical sizes and atimes score identically: ties must come out in
     inum order, and repeated rankings must agree exactly *)
  let fs, engine = fresh_fs () in
  let mk path = File.write fs (Dir.create_file fs path) ~off:0 (bytes_pattern 8192 3) in
  List.iter mk [ "/t0"; "/t1"; "/t2"; "/t3" ];
  (* equalise atimes: set them all to the same instant *)
  let inums = List.map (fun p -> (Dir.namei fs p).Inode.inum) [ "/t0"; "/t1"; "/t2"; "/t3" ] in
  List.iter (fun i -> Imap.set_atime (Fs.imap fs) i 0.0) inums;
  Sim.Engine.run_until engine 500.0;
  let p = { Stp.default with Stp.min_idle = 0.0 } in
  let r1 = Stp.rank fs p in
  let r2 = Stp.rank fs p in
  check (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 0.0)))
    "repeat ranking identical" r1 r2;
  let tied = List.filter (fun (i, _) -> List.mem i inums) r1 in
  check (Alcotest.list Alcotest.int) "ties in inum order" (List.sort compare inums)
    (List.map fst tied)

(* --- Namespace --- *)

let test_namespace_units () =
  let fs, engine = fresh_fs () in
  ignore (Dir.mkdir fs "/proj");
  ignore (Dir.mkdir fs "/proj/a");
  ignore (Dir.mkdir fs "/proj/b");
  let fa = Dir.create_file fs "/proj/a/x" in
  File.write fs fa ~off:0 (bytes_pattern 8192 1);
  let fb = Dir.create_file fs "/proj/b/y" in
  File.write fs fb ~off:0 (bytes_pattern 4096 2);
  Sim.Engine.run_until engine 500.0;
  (* touch unit b: it becomes hot *)
  ignore (File.read fs (Dir.namei fs "/proj/b/y") ~off:0 ~len:100);
  let units = Namespace.units_under fs "/proj" in
  check Alcotest.int "two units" 2 (List.length units);
  let ua = List.find (fun u -> u.Namespace.root_path = "/proj/a") units in
  let ub = List.find (fun u -> u.Namespace.root_path = "/proj/b") units in
  check Alcotest.bool "a dormant" true (ua.Namespace.min_idle > 400.0);
  check Alcotest.bool "b hot" true (ub.Namespace.min_idle < 10.0);
  check Alcotest.bool "sizes aggregated" true (ua.Namespace.total_bytes >= 8192);
  let sel =
    Namespace.select fs
      { Namespace.default_ranking with Namespace.min_idle = 100.0; stable_override = 1e9 }
      ~root:"/proj" ~target_bytes:1_000_000
  in
  check Alcotest.(list string) "only dormant unit selected" [ "/proj/a" ]
    (List.map (fun u -> u.Namespace.root_path) sel)

let test_namespace_stable_override () =
  let fs, engine = fresh_fs () in
  ignore (Dir.mkdir fs "/sat");
  let f = Dir.create_file fs "/sat/image" in
  File.write fs f ~off:0 (bytes_pattern 8192 3);
  Sim.Engine.run_until engine 2000.0;
  (* popular but stable: read repeatedly, never modified *)
  ignore (File.read fs (Dir.namei fs "/sat/image") ~off:0 ~len:100);
  let r = { Namespace.default_ranking with Namespace.min_idle = 100.0; stable_override = 600.0 } in
  let sel = Namespace.select fs r ~root:"/" ~target_bytes:1_000_000 in
  check Alcotest.bool "stable unit still eligible (secondary criterion)" true
    (List.exists (fun u -> u.Namespace.root_path = "/sat") sel)

(* --- Block ranges --- *)

let test_block_range_sequential_one_record () =
  let t = Block_range.create () in
  (* a file read sequentially and completely: one record *)
  for i = 0 to 9 do
    Block_range.observe t ~inum:5 ~lbn_lo:(i * 4) ~lbn_hi:((i * 4) + 3) ~write:false ~now:10.0
  done;
  check Alcotest.int "single coalesced record" 1 (List.length (Block_range.ranges t 5))

let test_block_range_random_splits () =
  let t = Block_range.create () in
  Block_range.observe t ~inum:7 ~lbn_lo:0 ~lbn_hi:99 ~write:true ~now:0.0;
  (* two hot spots much later *)
  Block_range.observe t ~inum:7 ~lbn_lo:10 ~lbn_hi:11 ~write:false ~now:500.0;
  Block_range.observe t ~inum:7 ~lbn_lo:60 ~lbn_hi:62 ~write:false ~now:500.0;
  let rs = Block_range.ranges t 7 in
  check Alcotest.int "split into five ranges" 5 (List.length rs);
  let cold = Block_range.cold_blocks t ~now:600.0 ~older_than:300.0 in
  (* cold blocks = 100 - 2 - 3 hot ones *)
  check Alcotest.int "cold block count" 95 (List.length cold);
  check Alcotest.bool "hot block excluded" true
    (not (List.mem (7, Bkey.Data 10) cold));
  check Alcotest.bool "cold block included" true (List.mem (7, Bkey.Data 0) cold)

let test_block_range_record_cap () =
  let t = Block_range.create ~max_records_per_file:8 () in
  for i = 0 to 63 do
    Block_range.observe t ~inum:9 ~lbn_lo:(i * 10) ~lbn_hi:(i * 10) ~write:false
      ~now:(float_of_int (i * 100))
  done;
  check Alcotest.bool "bookkeeping bounded" true (List.length (Block_range.ranges t 9) <= 8)

let test_block_range_forget () =
  let t = Block_range.create () in
  Block_range.observe t ~inum:3 ~lbn_lo:0 ~lbn_hi:5 ~write:false ~now:1.0;
  Block_range.forget t 3;
  check Alcotest.int "forgotten" 0 (List.length (Block_range.ranges t 3))

(* --- automigrate over a real HighLight instance --- *)

let test_automigrate_frees_disk () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:40 () in
      let store =
        Device.Blockstore.create ~block_size:4096 ~nblocks:(Layout.disk_blocks prm)
      in
      let jb =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:6 ~vol_capacity:(16 * 16)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
      in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:16 [ jb ] in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:8 () in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      (* fill the disk with cold files *)
      for i = 0 to 11 do
        let f = Dir.create_file fs (Printf.sprintf "/cold%d" i) in
        File.write fs f ~off:0 (bytes_pattern (30 * 4096) i)
      done;
      Fs.checkpoint fs;
      Sim.Engine.delay 500.0 (* everything goes cold *);
      let clean_before = Fs.nclean fs in
      let migrated =
        Automigrate.run_once st
          ~policy:(Automigrate.stp_policy { Stp.default with Stp.min_idle = 60.0 })
          ~low_water:(prm.Param.nsegs - 2) (* force a round *)
          ~high_water:(prm.Param.nsegs - 1)
      in
      check Alcotest.bool "files migrated" true (migrated > 0);
      check Alcotest.bool
        (Printf.sprintf "clean segments grew (%d -> %d)" clean_before (Fs.nclean fs))
        true
        (Fs.nclean fs > clean_before);
      (* and the data still reads back *)
      let f = Dir.namei fs "/cold3" in
      check Alcotest.bytes "migrated data intact" (bytes_pattern (30 * 4096) 3)
        (File.read fs f ~off:0 ~len:(30 * 4096));
      check Alcotest.(list string) "hierarchy invariants" [] (Highlight.Hl.check hl))

let test_automigrate_noop_above_watermark () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:40 () in
      let store =
        Device.Blockstore.create ~block_size:4096 ~nblocks:(Layout.disk_blocks prm)
      in
      let jb =
        Device.Jukebox.create engine ~drives:1 ~nvolumes:2 ~vol_capacity:(16 * 16)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
      in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:16 [ jb ] in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp () in
      let st = Highlight.Hl.state hl in
      let migrated =
        Automigrate.run_once st
          ~policy:(Automigrate.stp_policy Stp.default)
          ~low_water:2 ~high_water:4
      in
      check Alcotest.int "no migration needed" 0 migrated)

(* --- rearrangement (paper 5.4) --- *)

let test_rearrange_clusters_coaccessed () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:64 () in
      let store =
        Device.Blockstore.create ~block_size:4096 ~nblocks:(Layout.disk_blocks prm)
      in
      (* one drive: cross-volume access patterns pay a swap every time *)
      let jb =
        Device.Jukebox.create engine ~drives:1 ~nvolumes:4 ~vol_capacity:(6 * 16)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
      in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:6 [ jb ] in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:4 () in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      (* two data sets, migrated separately: they land on different volumes *)
      let a = Dir.create_file fs "/setA" in
      File.write fs a ~off:0 (bytes_pattern (60 * 4096) 1);
      ignore (Highlight.Migrator.migrate_paths st [ "/setA" ]);
      let b = Dir.create_file fs "/setB" in
      File.write fs b ~off:0 (bytes_pattern (60 * 4096) 2);
      ignore (Highlight.Migrator.migrate_paths st [ "/setB" ]);
      let vol_of_first path =
        let ino = Dir.namei fs path in
        let addr = Fs.lookup_addr fs ino (Bkey.Data 0) in
        fst (Highlight.Addr_space.vol_seg_of_tindex st.Highlight.State.aspace
               (Highlight.Addr_space.tindex_of_addr st.Highlight.State.aspace addr))
      in
      check Alcotest.bool "sets start on different volumes" true
        (vol_of_first "/setA" <> vol_of_first "/setB");
      (* now they are analysed together: alternating reads *)
      let rearranger = Policy.Rearrange.create ~window:1000.0 ~min_group:2 st in
      let _stop_observing = Policy.Rearrange.install rearranger in
      let alternating_read () =
        for chunk = 0 to 3 do
          List.iter
            (fun path ->
              let ino = Dir.namei fs path in
              ignore (File.read fs ino ~off:(chunk * 15 * 4096) ~len:(15 * 4096)))
            [ "/setA"; "/setB" ]
        done
      in
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/setA"; "/setB" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      let swaps0 = Device.Jukebox.swaps jb in
      alternating_read ();
      let swaps_before = Device.Jukebox.swaps jb - swaps0 in
      check Alcotest.bool "cross-volume pattern swaps media" true (swaps_before >= 2);
      (* the rearranger observed the co-access; re-cluster *)
      check Alcotest.bool "group detected" true
        (List.exists (fun g -> List.length g >= 2) (Policy.Rearrange.pending_groups rearranger));
      let fresh = Policy.Rearrange.run_once rearranger in
      check Alcotest.bool "rewrote into fresh segments" true (fresh <> []);
      let fresh_vols =
        List.sort_uniq compare
          (List.map (fun ti -> fst (Highlight.Addr_space.vol_seg_of_tindex st.Highlight.State.aspace ti)) fresh)
      in
      check Alcotest.bool "clustered onto fewer volumes" true (List.length fresh_vols <= 2);
      (* after ejection, the same analysis touches fewer volumes *)
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/setA"; "/setB" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      let swaps1 = Device.Jukebox.swaps jb in
      alternating_read ();
      let swaps_after = Device.Jukebox.swaps jb - swaps1 in
      check Alcotest.bool
        (Printf.sprintf "fewer media swaps after rearrangement (%d -> %d)" swaps_before
           swaps_after)
        true
        (swaps_after < swaps_before);
      (* and the data is intact *)
      check Alcotest.bytes "setA intact" (bytes_pattern (60 * 4096) 1)
        (File.read fs (Dir.namei fs "/setA") ~off:0 ~len:(60 * 4096));
      check Alcotest.bytes "setB intact" (bytes_pattern (60 * 4096) 2)
        (File.read fs (Dir.namei fs "/setB") ~off:0 ~len:(60 * 4096));
      check Alcotest.(list string) "invariants" [] (Highlight.Hl.check hl))

let test_replica_closest_copy () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:48 () in
      let store =
        Device.Blockstore.create ~block_size:4096 ~nblocks:(Layout.disk_blocks prm)
      in
      (* one drive: whichever volume is loaded is the cheap one *)
      let jb =
        Device.Jukebox.create engine ~drives:1 ~nvolumes:3 ~vol_capacity:(8 * 16)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
      in
      let fp = Footprint.create ~seg_blocks:16 ~segs_per_volume:8 [ jb ] in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:4 () in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      let f = Dir.create_file fs "/replicated" in
      let data = bytes_pattern (10 * 4096) 9 in
      File.write fs f ~off:0 data;
      let tsegs = Highlight.Migrator.migrate_paths st [ "/replicated" ] in
      (* replicate every segment of the file onto another volume *)
      let replicas = List.filter_map (Policy.Rearrange.replicate st) tsegs in
      check Alcotest.int "each segment replicated" (List.length tsegs) (List.length replicas);
      let vol_of t = fst (Highlight.Addr_space.vol_seg_of_tindex st.Highlight.State.aspace t) in
      List.iter2
        (fun p r ->
          check Alcotest.bool "replica on another volume" true (vol_of p <> vol_of r))
        tsegs replicas;
      (* park the REPLICA volume in the single drive, eject the cache *)
      (match replicas with
      | r :: _ ->
          ignore (Device.Jukebox.read jb ~vol:(vol_of r) ~blk:0 ~count:1)
      | [] -> ());
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/replicated" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      let swaps_before = Device.Jukebox.swaps jb in
      check Alcotest.bytes "read via closest copy" data
        (File.read fs (Dir.namei fs "/replicated") ~off:0 ~len:(10 * 4096));
      (* served from the loaded replica volume: no media swap needed *)
      check Alcotest.int "no swap paid" swaps_before (Device.Jukebox.swaps jb);
      (* kill the replicas (tertiary cleaner on the replica volume): the
         primary still serves the data *)
      (match replicas with
      | r :: _ ->
          List.iter
            (fun t -> Lfs.Segusage.set_state st.Highlight.State.tseg t Lfs.Segusage.Clean)
            replicas;
          Footprint.erase_volume fp (vol_of r)
      | [] -> ());
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/replicated" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      check Alcotest.bytes "fallback to primary" data
        (File.read fs (Dir.namei fs "/replicated") ~off:0 ~len:(10 * 4096)))

(* --- workload sanity --- *)

let test_trace_generator_wellformed () =
  let events = Workload.Trace.generate ~seed:11 Workload.Trace.default in
  let created = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun ev ->
      match ev with
      | Workload.Trace.Create { path; bytes } ->
          if bytes <= 0 then ok := false;
          Hashtbl.replace created path ()
      | Workload.Trace.Read { path; off; len } | Workload.Trace.Overwrite { path; off; len } ->
          if not (Hashtbl.mem created path) then ok := false;
          if off < 0 || len <= 0 then ok := false
      | Workload.Trace.Delete { path } ->
          if not (Hashtbl.mem created path) then ok := false;
          Hashtbl.remove created path
      | Workload.Trace.Advance dt -> if dt < 0.0 then ok := false)
    events;
  check Alcotest.bool "events well-formed" true !ok;
  check Alcotest.bool "enough events" true (List.length events > 100)

let test_trace_zipf_skew () =
  let events = Workload.Trace.generate ~seed:3 { Workload.Trace.default with Workload.Trace.events = 2000 } in
  let counts = Hashtbl.create 16 in
  List.iter
    (function
      | Workload.Trace.Read { path; _ } ->
          Hashtbl.replace counts path (1 + Option.value ~default:0 (Hashtbl.find_opt counts path))
      | _ -> ())
    events;
  let sorted = Hashtbl.fold (fun _ c acc -> c :: acc) counts [] |> List.sort compare |> List.rev in
  match sorted with
  | top :: _ ->
      let total = List.fold_left ( + ) 0 sorted in
      check Alcotest.bool "popular file dominates" true
        (float_of_int top > 0.1 *. float_of_int total)
  | [] -> Alcotest.fail "no reads generated"

let test_tree_gen () =
  let fs, _ = fresh_fs () in
  ignore (Dir.mkdir fs "/tree");
  let files = Workload.Tree_gen.build fs ~seed:4 ~root:"/tree" Workload.Tree_gen.small in
  check Alcotest.bool "files created" true (List.length files > 10);
  List.iter
    (fun p -> check Alcotest.bool ("exists " ^ p) true (Dir.namei_opt fs p <> None))
    files;
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

let test_large_object_verify_catches_corruption () =
  let fs, engine = fresh_fs ~prm:(Param.for_tests ~seg_blocks:16 ~nsegs:128 ()) () in
  let ops = Workload.Large_object.lfs_ops fs in
  Workload.Large_object.setup engine ops ~frames:100 ~frame_bytes:4096 "/obj";
  check Alcotest.bool "verifies clean" true
    (Workload.Large_object.verify ops ~frames:100 ~frame_bytes:4096 "/obj");
  ignore (Workload.Large_object.run engine ops ~frames:100 ~frame_bytes:4096 ~seed:1 "/obj");
  check Alcotest.bool "verifies after phases" true
    (Workload.Large_object.verify ops ~frames:100 ~frame_bytes:4096 "/obj");
  (* corrupt a frame behind the workload's back *)
  let f = Dir.namei fs "/obj" in
  File.write fs f ~off:(50 * 4096) (Bytes.make 10 '!');
  check Alcotest.bool "corruption detected" false
    (Workload.Large_object.verify ops ~frames:100 ~frame_bytes:4096 "/obj")

(* The harness blits frames from one tiled pattern; every frame it
   writes, at every generation, must be the one the byte formula
   (frame + 11 i + 131 generation) mod 256 gives — the content Table 2
   has always written. An in-memory object records each write; frame
   sizes that are and are not a multiple of 8 cover [verify]'s word and
   byte compares. *)
let test_large_object_frames_match_formula () =
  let formula ~frame_bytes ~frame ~generation =
    Bytes.init frame_bytes (fun i -> Char.chr ((frame + (i * 11) + (generation * 131)) land 0xff))
  in
  List.iter
    (fun frame_bytes ->
      let frames = 300 in
      let obj = Bytes.make (frames * frame_bytes) '\000' in
      let gens = Array.make frames 0 in
      let bad = ref 0 and checked = ref 0 in
      let write _ ~off data =
        let len = Bytes.length data in
        if len = frame_bytes then gens.(off / frame_bytes) <- gens.(off / frame_bytes) + 1;
        for j = 0 to (len / frame_bytes) - 1 do
          let frame = (off / frame_bytes) + j in
          incr checked;
          let expect = formula ~frame_bytes ~frame ~generation:gens.(frame) in
          if not (Bytes.equal (Bytes.sub data (j * frame_bytes) frame_bytes) expect) then incr bad
        done;
        Bytes.blit data 0 obj off len
      in
      let ops =
        {
          Workload.Large_object.fs_name = "memory";
          create = ignore;
          write;
          read = (fun _ ~off ~len -> Bytes.sub obj off len);
          flush_caches = ignore;
          sync = ignore;
        }
      in
      let engine = Sim.Engine.create () in
      Workload.Large_object.setup engine ops ~frames ~frame_bytes "/obj";
      for seed = 1 to 3 do
        ignore (Workload.Large_object.run engine ops ~frames ~frame_bytes ~seed "/obj")
      done;
      let what = Printf.sprintf "%d-byte frames" frame_bytes in
      check Alcotest.int (what ^ ": written frames off the formula") 0 !bad;
      check Alcotest.bool (what ^ ": frames written past generation 1") true
        (Array.exists (fun g -> g >= 2) gens);
      for frame = 0 to frames - 1 do
        if
          not
            (Bytes.equal
               (Bytes.sub obj (frame * frame_bytes) frame_bytes)
               (formula ~frame_bytes ~frame ~generation:gens.(frame)))
        then incr bad
      done;
      check Alcotest.int (what ^ ": stored frames off the formula") 0 !bad;
      check Alcotest.bool (what ^ ": verify accepts") true
        (Workload.Large_object.verify ops ~frames ~frame_bytes "/obj");
      (* the last byte of a frame, which a word compare of a frame not
         a multiple of 8 long leaves to the byte loop *)
      let last = (7 * frame_bytes) + frame_bytes - 1 in
      Bytes.set obj last (Char.chr ((Char.code (Bytes.get obj last) + 1) land 0xff));
      check Alcotest.bool (what ^ ": verify rejects one changed byte") false
        (Workload.Large_object.verify ops ~frames ~frame_bytes "/obj"))
    [ 4096; 100 ]

let prop_block_range_disjoint_sorted =
  QCheck.Test.make ~name:"block ranges stay disjoint and sorted" ~count:100
    QCheck.(small_list (triple small_nat small_nat bool))
    (fun ops ->
      let t = Block_range.create () in
      List.iteri
        (fun i (lo, len, write) ->
          Block_range.observe t ~inum:1 ~lbn_lo:lo ~lbn_hi:(lo + (len mod 20))
            ~write ~now:(float_of_int i))
        ops;
      let rec disjoint = function
        | a :: (b :: _ as rest) -> a.Block_range.hi < b.Block_range.lo && disjoint rest
        | _ -> true
      in
      disjoint (Block_range.ranges t 1))

let suite =
  [
    ( "policy.stp",
      [
        Alcotest.test_case "score monotone" `Quick test_stp_score_monotone;
        Alcotest.test_case "ranking and selection" `Quick test_stp_ranking_and_select;
        Alcotest.test_case "score edge cases" `Quick test_stp_score_edges;
        Alcotest.test_case "min_idle boundary" `Quick test_stp_min_idle_boundary;
        Alcotest.test_case "rank tie determinism" `Quick test_stp_rank_tie_determinism;
      ] );
    ( "policy.namespace",
      [
        Alcotest.test_case "units and dormancy" `Quick test_namespace_units;
        Alcotest.test_case "stable-file override" `Quick test_namespace_stable_override;
      ] );
    ( "policy.block_range",
      [
        Alcotest.test_case "sequential collapses to one record" `Quick
          test_block_range_sequential_one_record;
        Alcotest.test_case "random access splits" `Quick test_block_range_random_splits;
        Alcotest.test_case "record cap enforced" `Quick test_block_range_record_cap;
        Alcotest.test_case "forget" `Quick test_block_range_forget;
      ] );
    ( "policy.automigrate",
      [
        Alcotest.test_case "frees disk space" `Quick test_automigrate_frees_disk;
        Alcotest.test_case "no-op above watermark" `Quick test_automigrate_noop_above_watermark;
      ] );
    ( "policy.rearrange",
      [
        Alcotest.test_case "clusters co-accessed segments" `Quick
          test_rearrange_clusters_coaccessed;
        Alcotest.test_case "replicas: closest copy + fallback" `Quick
          test_replica_closest_copy;
      ] );
    ( "workload",
      [
        Alcotest.test_case "trace well-formed" `Quick test_trace_generator_wellformed;
        Alcotest.test_case "trace zipf skew" `Quick test_trace_zipf_skew;
        Alcotest.test_case "tree generator" `Quick test_tree_gen;
        Alcotest.test_case "large-object verify" `Quick test_large_object_verify_catches_corruption;
        Alcotest.test_case "large-object frames" `Quick test_large_object_frames_match_formula;
      ] );
    ("policy.properties", [ QCheck_alcotest.to_alcotest prop_block_range_disjoint_sorted ]);
  ]
