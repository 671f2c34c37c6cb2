(* The pipelined service/I-O layer: concurrent demand fetches,
   prefetches and write-outs interleaving through the worker pool, the
   starved-fetch path (no cache line obtainable until someone frees a
   segment), and cache eviction with every line pinned or Staging. *)

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

let make_world ?(nsegs = 64) ?(cache_segs = 12) ?(io_mode = State.Pipelined) engine =
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size
      ~nblocks:(Layout.disk_blocks prm)
  in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:4
      ~vol_capacity:(8 * prm.Param.seg_blocks) ~media:Device.Jukebox.hp6300_platter
      ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp = Footprint.create ~seg_blocks:prm.Param.seg_blocks ~segs_per_volume:8 [ jb ] in
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs ~io_mode () in
  (hl, fp)

let seg_bytes = 16 * 4096

(* Two readers demand-fetching from different volumes (with sequential
   prefetch trailing each fetch) while a migrator stages a third file
   out — >= 4 requests outstanding at once, in both I/O modes. Every
   byte read back must be identical to what was written. *)
let run_interleaving io_mode () =
  in_sim (fun engine ->
      let hl, _fp = make_world ~io_mode engine in
      let fsys = Hl.fs hl in
      let st = Hl.state hl in
      Hl.set_prefetch_sequential hl ~depth:2;
      let a = bytes_pattern (4 * seg_bytes) 3 in
      let b = bytes_pattern (4 * seg_bytes) 5 in
      let c = bytes_pattern (3 * seg_bytes) 11 in
      Hl.write_file hl "/a" a;
      Hl.write_file hl "/b" b;
      Fs.checkpoint fsys;
      (* separate volumes so the two fetch streams are independent *)
      st.State.restrict_volume <- Some 0;
      ignore (Migrator.migrate_paths st [ "/a" ]);
      st.State.restrict_volume <- Some 1;
      ignore (Migrator.migrate_paths st [ "/b" ]);
      st.State.restrict_volume <- None;
      Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b" ];
      Hl.write_file hl "/c" c;
      let done_cv = Sim.Condvar.create () in
      let remaining = ref 3 in
      let finish () =
        decr remaining;
        Sim.Condvar.broadcast done_cv
      in
      let got_a = ref Bytes.empty and got_b = ref Bytes.empty in
      Sim.Engine.spawn engine ~name:"reader-a" (fun () ->
          got_a := Hl.read_file hl "/a" ();
          finish ());
      Sim.Engine.spawn engine ~name:"reader-b" (fun () ->
          got_b := Hl.read_file hl "/b" ();
          finish ());
      Sim.Engine.spawn engine ~name:"migrator-c" (fun () ->
          ignore (Migrator.migrate_paths st ~checkpoint:false [ "/c" ]);
          finish ());
      while !remaining > 0 do
        Sim.Condvar.wait done_cv
      done;
      check Alcotest.bool "/a identical" true (Bytes.equal !got_a a);
      check Alcotest.bool "/b identical" true (Bytes.equal !got_b b);
      check Alcotest.bool "/c identical" true (Bytes.equal (Hl.read_file hl "/c" ()) c);
      let s = Hl.stats hl in
      check Alcotest.bool "demand fetches happened" true (s.Hl.demand_fetches >= 2);
      check Alcotest.bool "writeouts happened" true (s.Hl.writeouts >= 3);
      check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl))

(* A demand fetch that cannot get a cache line (clean pool exhausted,
   nothing evictable) must park — without polling — and complete as soon
   as Fs.release_segment frees a segment. *)
let run_starved_fetch io_mode () =
  in_sim (fun engine ->
      let hl, _fp = make_world ~nsegs:24 ~cache_segs:8 ~io_mode engine in
      let fsys = Hl.fs hl in
      let st = Hl.state hl in
      let m = bytes_pattern (2 * seg_bytes) 9 in
      Hl.write_file hl "/m" m;
      Fs.checkpoint fsys;
      ignore (Migrator.migrate_paths st [ "/m" ]);
      Hl.eject_tertiary_copies hl ~paths:[ "/m" ];
      (* hoard every clean segment a cache line could use *)
      let hoard = ref [] in
      let rec grab () =
        match Fs.alloc_clean_segment fsys with
        | Some seg ->
            hoard := seg :: !hoard;
            grab ()
        | None -> ()
      in
      grab ();
      check Alcotest.bool "pool exhausted" true (!hoard <> []);
      let got = ref None in
      Sim.Engine.spawn engine ~name:"starved-reader" (fun () ->
          got := Some (Hl.read_file hl "/m" ()));
      (* long enough for an unstarved fetch (swap + transfers) to finish *)
      Sim.Engine.delay 60.0;
      check Alcotest.bool "fetch starved while pool empty" true (!got = None);
      (* freeing one segment must wake the whole chain: segments_freed
         hook -> cache_progress -> service retry -> fetch -> reader *)
      Fs.release_segment fsys (List.hd !hoard);
      Sim.Engine.delay 60.0;
      (match !got with
      | None -> Alcotest.fail "fetch still starved after release_segment"
      | Some data -> check Alcotest.bool "/m identical" true (Bytes.equal data m));
      List.iter (Fs.release_segment fsys) (List.tl !hoard);
      check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl))

(* Eviction with every line pinned or Staging: nothing is evictable, no
   victim is offered, and the release of the last pin wakes the
   allocation waiters. *)
let test_eviction_all_pinned () =
  in_sim (fun engine ->
      let c = Seg_cache.create ~max_lines:4 () in
      let l1 = Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Staging ~now:1.0 in
      let l2 = Seg_cache.insert c ~tindex:2 ~disk_seg:2 ~state:Seg_cache.Resident ~now:1.0 in
      Seg_cache.pin l2;
      check Alcotest.bool "nothing evictable" true (Seg_cache.choose_victim c = None);
      let freed = ref 0 in
      Sim.Engine.spawn engine ~name:"allocation-waiter" (fun () ->
          for _ = 1 to 2 do
            Sim.Condvar.wait (Seg_cache.freed c);
            incr freed
          done);
      Sim.Engine.delay 1.0;
      Seg_cache.unpin c l2;
      Sim.Engine.delay 1.0;
      check Alcotest.int "unpin woke the waiter" 1 !freed;
      check Alcotest.bool "pinned line now victim" true (Seg_cache.choose_victim c = Some l2);
      (* a Staging line stays untouchable: it holds the only copy *)
      l2.Seg_cache.state <- Seg_cache.Staging;
      check Alcotest.bool "staging never evictable" true (Seg_cache.choose_victim c = None);
      ignore l1;
      Seg_cache.remove c l2;
      Sim.Engine.delay 1.0;
      check Alcotest.int "remove woke the waiter" 2 !freed)

let suite =
  [
    ( "service.pipeline",
      [
        Alcotest.test_case "concurrent interleavings (pipelined)" `Quick
          (run_interleaving State.Pipelined);
        Alcotest.test_case "concurrent interleavings (serial)" `Quick
          (run_interleaving State.Serial);
        Alcotest.test_case "starved fetch wakes on release (pipelined)" `Quick
          (run_starved_fetch State.Pipelined);
        Alcotest.test_case "starved fetch wakes on release (serial)" `Quick
          (run_starved_fetch State.Serial);
        Alcotest.test_case "eviction with all lines pinned/staging" `Quick
          test_eviction_all_pinned;
      ] );
  ]
