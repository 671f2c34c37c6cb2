(* Streaming demand fetches (valid-prefix watermark, first-block
   wakeup), their interaction with mid-stream injected faults, the
   prefetch-outcome accounting behind the adaptive readahead, and the
   victim-choice contract of all three cache policies. *)

open Highlight
open Lfs

let check = Alcotest.check
let with_plan f = Fun.protect ~finally:Sim.Fault.clear f

let in_sim_e f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> (r, e) | None -> Alcotest.fail "sim process did not finish"

let in_sim f = fst (in_sim_e f)
let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let parse_ok text =
  match Sim.Fault.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.fail ("fault plan did not parse: " ^ msg)

(* A world whose tertiary transfer dominates everything else (slow read
   rate, fast robot), so the gap between "first chunk arrived" and
   "whole segment arrived" is unmistakable in the clock. *)
let make_slow_world ?(streaming = true) ?(chunk = 4) ?(nsegs = 64) ?(cache_segs = 12)
    ?(read_rate = 32.0 *. 1024.0) engine =
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size
      ~nblocks:(Layout.disk_blocks prm)
  in
  let media =
    {
      Device.Jukebox.hp6300_platter with
      Device.Jukebox.media_name = "slow test platter";
      read_rate (* default 32 KB/s: 64 KB segment = 2 s of transfer *);
      write_rate = 512.0 *. 1024.0;
      seek_const = 0.01;
    }
  in
  let changer = { Device.Jukebox.swap_time = 0.5; hogs_bus = false } in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:4
      ~vol_capacity:(8 * prm.Param.seg_blocks) ~media ~changer "jb"
  in
  let fp = Footprint.create ~seg_blocks:prm.Param.seg_blocks ~segs_per_volume:8 [ jb ] in
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs () in
  Hl.set_streaming_fetch hl streaming;
  (Hl.state hl).State.stream_chunk_blocks <- chunk;
  (hl, fp)

let stage_out hl path data ~vol =
  let st = Hl.state hl in
  Hl.write_file hl path data;
  Fs.checkpoint (Hl.fs hl);
  st.State.restrict_volume <- Some vol;
  ignore (Migrator.migrate_paths st [ path ]);
  st.State.restrict_volume <- None;
  Hl.eject_tertiary_copies hl ~paths:[ path ]

(* 14 data blocks: with the indirect block the migrator stages this as
   two tertiary segments (capacity = 16 - summary - inode block = 14) *)
let file_bytes = 14 * 4096

(* 12 data blocks, all direct: 12 + summary + inode fit one 16-block
   staged segment, so the whole file rides a single cache line *)
let small_bytes = 12 * 4096

(* ---------- first-block wakeup ---------- *)

(* The same single-block read of a tape-resident segment, streaming vs
   blocking: the streaming reader must return while the rest of the
   segment is still crossing the bus. *)
let test_first_block_wakeup () =
  let read_one_block streaming =
    in_sim (fun engine ->
        let hl, _fp = make_slow_world ~streaming engine in
        let fs = Hl.fs hl in
        let data = bytes_pattern file_bytes 3 in
        stage_out hl "/a" data ~vol:0;
        let ino = Dir.namei fs "/a" in
        let t0 = Sim.Engine.now engine in
        let got = File.read fs ino ~off:0 ~len:4096 in
        let dt = Sim.Engine.now engine -. t0 in
        check Alcotest.bool "block content intact" true
          (Bytes.equal got (Bytes.sub data 0 4096));
        (* the segment must still land in full: wait, then verify *)
        Sim.Engine.delay 30.0;
        check Alcotest.bool "whole file intact after landing" true
          (Bytes.equal (File.read fs ino ~off:0 ~len:file_bytes) data);
        Hl.shutdown_service hl;
        dt)
  in
  let dt_stream = read_one_block true in
  let dt_block = read_one_block false in
  check Alcotest.bool
    (Printf.sprintf "first block at least 2x faster (%.2fs vs %.2fs)" dt_stream dt_block)
    true
    (dt_stream *. 2.0 <= dt_block);
  (* sanity: the streaming wait still includes robot + seek + 1 chunk *)
  check Alcotest.bool "streaming wait is not free" true (dt_stream > 0.4)

(* The stats surface the same fact: first-block p50 below full-fetch
   completion p50. *)
let test_first_block_histogram () =
  in_sim (fun engine ->
      let hl, _fp = make_slow_world engine in
      let data = bytes_pattern file_bytes 5 in
      stage_out hl "/a" data ~vol:0;
      ignore (Hl.read_file hl "/a" ~off:0 ~len:4096 ());
      Sim.Engine.delay 30.0;
      let s = Hl.stats hl in
      check Alcotest.bool "first_block_p50 recorded" true (s.Hl.first_block_p50 > 0.0);
      check Alcotest.bool "full-fetch p50 recorded" true (s.Hl.fetch_latency_p50 > 0.0);
      check Alcotest.bool "first block precedes completion" true
        (s.Hl.first_block_p50 < s.Hl.fetch_latency_p50);
      Hl.shutdown_service hl)

(* ---------- mid-stream media error ---------- *)

(* A media error after the first chunk, with retries disabled: the
   waiter inside the delivered prefix gets its data, the suffix waiter
   gets Io_error, and the delivered prefix survives as a Partial cache
   line — later reads inside the watermark are served from memory, and
   a read past it re-fetches only the missing tail. *)
let test_midstream_media_error () =
  let (), e =
    in_sim_e (fun engine ->
        with_plan (fun () ->
            let hl, _fp = make_slow_world engine in
            let fs = Hl.fs hl in
            let st = Hl.state hl in
            st.State.retry.State.max_attempts <- 1;
            let data = bytes_pattern small_bytes 7 in
            stage_out hl "/a" data ~vol:0;
            let ino = Dir.namei fs "/a" in
            (* read ops on the drive: 1 = pre-transfer check, 2..5 = the
               four 4-block chunk deliveries. op=3 kills chunk 2, after
               blocks 0-3 of the segment (summary + file blocks 0-2)
               were delivered. *)
            Sim.Fault.install engine ~metrics:(Hl.metrics hl)
              (parse_ok "jb:drive* read op=3 media_error transient");
            let prefix = ref None and suffix_err = ref false in
            let done_cv = Sim.Condvar.create () in
            let remaining = ref 2 in
            let finish () =
              decr remaining;
              Sim.Condvar.broadcast done_cv
            in
            Sim.Engine.spawn engine ~name:"prefix-reader" (fun () ->
                prefix := Some (File.read fs ino ~off:0 ~len:4096);
                finish ());
            Sim.Engine.spawn engine ~name:"suffix-reader" (fun () ->
                (* file block 11 = segment offset 12: valid only once the
                   final chunk lands, so the fault leaves it unserved *)
                (try ignore (File.read fs ino ~off:(11 * 4096) ~len:4096)
                 with State.Io_error _ -> suffix_err := true);
                finish ());
            while !remaining > 0 do
              Sim.Condvar.wait done_cv
            done;
            check Alcotest.bool "prefix waiter served real data" true
              (match !prefix with
              | Some b -> Bytes.equal b (Bytes.sub data 0 4096)
              | None -> false);
            check Alcotest.bool "suffix waiter got Io_error" true !suffix_err;
            check Alcotest.int "delivered prefix kept as a partial line" 1
              (Seg_cache.length (Hl.cache hl));
            (match Seg_cache.lines (Hl.cache hl) with
            | [ l ] ->
                check Alcotest.bool "partial line: state, watermark, no disk seg" true
                  (l.Seg_cache.state = Seg_cache.Partial
                  && l.Seg_cache.valid_blocks >= 4
                  && l.Seg_cache.disk_seg = -1)
            | _ -> Alcotest.fail "expected exactly one cache line");
            (* a never-read block inside the prefix: served from the
               partial line's image, no new tertiary fetch *)
            let fetches_before = (Hl.stats hl).Hl.demand_fetches in
            check Alcotest.bool "prefix re-read served from partial line" true
              (Bytes.equal (File.read fs ino ~off:4096 ~len:4096) (Bytes.sub data 4096 4096));
            let s = Hl.stats hl in
            check Alcotest.int "prefix serve is not a new fetch" fetches_before
              s.Hl.demand_fetches;
            check Alcotest.bool "partial serve counted" true (s.Hl.partial_line_serves >= 1);
            (* the op-count fault fired once; reading past the watermark
               re-fetches only the missing tail and completes the line *)
            check Alcotest.bool "re-read past watermark fetches cleanly" true
              (Bytes.equal (File.read fs ino ~off:0 ~len:small_bytes) data);
            let s = Hl.stats hl in
            check Alcotest.bool "tail re-fetch moved only the suffix" true
              (s.Hl.tail_refetch_bytes > 0 && s.Hl.tail_refetch_bytes < 16 * 4096);
            check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl);
            Hl.shutdown_service hl))
  in
  check
    (Alcotest.list Alcotest.string)
    "no blocked processes" []
    (Sim.Engine.blocked_process_names e);
  check Alcotest.int "blocked count" 0 (Sim.Engine.blocked_processes e)

(* ---------- streaming write-out under faults ---------- *)

(* A media error mid-way through a streaming write-out: the retry
   resumes at the written prefix from the watermarked staging buffer,
   the volume ends up consistent, and the staged data reads back
   verbatim after a real demand fetch. *)
let test_midwrite_media_error () =
  let (), e =
    in_sim_e (fun engine ->
        with_plan (fun () ->
            let hl, _fp = make_slow_world engine in
            let fs = Hl.fs hl in
            let st = Hl.state hl in
            let data = bytes_pattern small_bytes 11 in
            Hl.write_file hl "/a" data;
            Fs.checkpoint fs;
            (* streaming write ops are one per 4-block chunk (no
               pre-transfer check): op=2 tears the first write-out after
               chunk 1 already landed on the volume *)
            Sim.Fault.install engine ~metrics:(Hl.metrics hl)
              (parse_ok "jb:drive* write op=2 media_error transient");
            st.State.restrict_volume <- Some 0;
            ignore (Migrator.migrate_paths st [ "/a" ]);
            st.State.restrict_volume <- None;
            let s = Hl.stats hl in
            check Alcotest.bool "the torn chunk was retried" true (s.Hl.io_retries >= 1);
            check Alcotest.int "no failure surfaced" 0 s.Hl.io_failures;
            check Alcotest.bool "write-outs completed" true (s.Hl.writeouts >= 1);
            check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl);
            Hl.eject_tertiary_copies hl ~paths:[ "/a" ];
            check Alcotest.bool "staged copy reads back verbatim" true
              (Bytes.equal (Hl.read_file hl "/a" ()) data);
            Hl.shutdown_service hl))
  in
  check
    (Alcotest.list Alcotest.string)
    "no blocked processes" []
    (Sim.Engine.blocked_process_names e)

(* ---------- cost-aware idle readahead ---------- *)

(* While a drive sits idle and a loaded volume holds warm uncached
   segments, the idle daemon stages them speculatively; the moment
   demand work arrives, still-queued idle prefetches are preempted.
   Idle outcomes never leak into the adaptive-prefetch accuracy. *)
let test_idle_readahead_issue_and_preempt () =
  let (), e =
    in_sim_e (fun engine ->
        (* 8 KB/s: a segment fetch holds its volume claim for 8 s, so
           the demand below reliably arrives while the queued idle hint
           is still waiting behind the claim *)
        let hl, _fp = make_slow_world ~read_rate:(8.0 *. 1024.0) engine in
        let fs = Hl.fs hl in
        let st = Hl.state hl in
        let a = bytes_pattern small_bytes 3
        and b = bytes_pattern small_bytes 5
        and c = bytes_pattern small_bytes 7 in
        (* separate migrations so each file owns its tertiary segment:
           /a and /b share volume 0, /c lives alone on volume 1 *)
        stage_out hl "/a" a ~vol:0;
        stage_out hl "/b" b ~vol:0;
        stage_out hl "/c" c ~vol:1;
        (* warm everything once — this loads volume 0 and volume 1 into
           the two drives and caches the inodes in core — then drop the
           cached lines so only the heat survives *)
        check Alcotest.bool "/a warmed" true (Bytes.equal (Hl.read_file hl "/a" ()) a);
        check Alcotest.bool "/b warmed" true (Bytes.equal (Hl.read_file hl "/b" ()) b);
        check Alcotest.bool "/c warmed" true (Bytes.equal (Hl.read_file hl "/c" ()) c);
        Sim.Engine.delay 30.0;
        Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b"; "/c" ];
        (* make /b's segment the unambiguous idle candidate *)
        let tb =
          let ino = Dir.namei fs "/b" in
          Addr_space.tindex_of_addr st.State.aspace (Fs.lookup_addr fs ino (Bkey.Data 0))
        in
        Obs.Heat.touch st.State.heat ~now:(Sim.Engine.now engine) ~weight:100.0 tb;
        Hl.set_idle_readahead hl true;
        (* a demand fetch of /a claims volume 0 on one drive; the other
           worker runs dry, kicking the idle daemon, whose hint for /b's
           segment queues behind the very claim /a's fetch holds *)
        let got_a = ref None and got_c = ref None in
        Sim.Engine.spawn engine ~name:"reader-a" (fun () ->
            got_a := Some (Hl.read_file hl "/a" ()));
        Sim.Engine.delay 1.0 (* mid-transfer of /a's segment *);
        check Alcotest.bool "idle prefetch issued while a drive idles" true
          ((Hl.stats hl).Hl.idle_prefetches_issued >= 1);
        (* demand for /c (volume 1) arrives: still-queued idle hints are
           swept before the new fetch is queued *)
        Sim.Engine.spawn engine ~name:"reader-c" (fun () ->
            got_c := Some (Hl.read_file hl "/c" ()));
        Sim.Engine.delay 60.0;
        let s = Hl.stats hl in
        check Alcotest.bool "queued idle prefetch preempted by demand" true
          (s.Hl.idle_prefetches_preempted >= 1);
        check Alcotest.bool "/a verbatim" true
          (match !got_a with Some g -> Bytes.equal g a | None -> false);
        check Alcotest.bool "/c verbatim" true
          (match !got_c with Some g -> Bytes.equal g c | None -> false);
        (* once demand drains, the daemon re-stages the still-warm /b:
           this read is served without a new demand fetch *)
        let before = (Hl.stats hl).Hl.demand_fetches in
        check Alcotest.bool "/b served from idle-prefetched lines" true
          (Bytes.equal (Hl.read_file hl "/b" ()) b);
        let s = Hl.stats hl in
        check Alcotest.int "no new demand fetch for /b" before s.Hl.demand_fetches;
        check Alcotest.bool "idle hits counted separately" true
          (Sim.Metrics.count (Sim.Metrics.counter st.State.metrics "idle.used") >= 1);
        check Alcotest.int "idle outcomes stay out of prefetch accuracy" 0
          s.Hl.prefetches_used;
        check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl);
        Hl.shutdown_service hl)
  in
  check
    (Alcotest.list Alcotest.string)
    "no blocked processes" []
    (Sim.Engine.blocked_process_names e)

(* ---------- prefetch outcome accounting ---------- *)

(* A hint that cannot get a cache line (clean pool hoarded) is dropped
   and counted; the demand fetch itself parks and completes once a
   segment frees up. *)
let test_hint_into_full_cache () =
  in_sim (fun engine ->
      let hl, _fp = make_slow_world ~nsegs:24 ~cache_segs:8 engine in
      let fs = Hl.fs hl in
      let st = Hl.state hl in
      let wasted = ref 0 in
      ignore
        (State.subscribe st (function State.Prefetch_wasted _ -> incr wasted | _ -> ())
          : unit -> unit);
      let a = bytes_pattern file_bytes 3 and b = bytes_pattern file_bytes 5 in
      Hl.write_file hl "/a" a;
      Hl.write_file hl "/b" b;
      Fs.checkpoint fs;
      st.State.restrict_volume <- Some 0;
      ignore (Migrator.migrate_paths st [ "/a"; "/b" ]);
      st.State.restrict_volume <- None;
      Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b" ];
      Hl.set_prefetch_sequential hl ~depth:1;
      let hoard = ref [] in
      let rec grab () =
        match Fs.alloc_clean_segment fs with
        | Some seg ->
            hoard := seg :: !hoard;
            grab ()
        | None -> ()
      in
      grab ();
      check Alcotest.bool "pool exhausted" true (!hoard <> []);
      let got = ref None in
      Sim.Engine.spawn engine ~name:"reader" (fun () -> got := Some (Hl.read_file hl "/a" ()));
      Sim.Engine.delay 60.0;
      (* the speculative hint must not be parked in front of the
         allocator: it is already cancelled while the demand fetch
         waits *)
      let s = Hl.stats hl in
      check Alcotest.bool "prefetch dropped while starved" true (s.Hl.prefetches_dropped >= 1);
      check Alcotest.bool "drop reported to the policy" true (!wasted >= 1);
      List.iter (Fs.release_segment fs) !hoard;
      Sim.Engine.delay 60.0;
      check Alcotest.bool "demand fetch completed after release" true
        (match !got with Some g -> Bytes.equal g a | None -> false);
      Hl.shutdown_service hl)

(* Hints to clean / out-of-range tertiary segments never become fetches. *)
let test_hint_clean_tindex_ignored () =
  in_sim (fun engine ->
      let hl, _fp = make_slow_world engine in
      let st = Hl.state hl in
      let data = bytes_pattern small_bytes 9 in
      stage_out hl "/a" data ~vol:0;
      (* the file occupies tsegs t (data) and t+1 (packed inode block);
         t+2 was never written (clean), the others are out of range *)
      Hl.set_prefetch_hints hl (fun t -> [ t + 2; t + 9999; -5 ]);
      check Alcotest.bool "read ok" true (Bytes.equal (Hl.read_file hl "/a" ()) data);
      Sim.Engine.delay 30.0;
      check Alcotest.int "no prefetch submitted" 0
        (Sim.Metrics.count (Sim.Metrics.counter st.State.metrics "service.prefetches_submitted"));
      check Alcotest.bool "only demand lines are cached" true
        (Seg_cache.length (Hl.cache hl) >= 1
        && List.for_all (fun l -> not l.Seg_cache.prefetched) (Seg_cache.lines (Hl.cache hl)));
      Hl.shutdown_service hl)

(* A failed prefetch is scored once, at its final fate. Failing after
   its first chunk (read op 8) leaves a Partial line, which /b's read
   then uses: used once, never wasted at the failure as well. Failing
   on its first chunk (op 7) removes the line: wasted, and /b's read is
   a plain demand fetch. *)
let failed_prefetch ?(tail_only = false) ~op ~partial ~used:want_used ~wasted:want_wasted () =
  in_sim (fun engine ->
      with_plan (fun () ->
          let hl, _fp = make_slow_world engine in
          let st = Hl.state hl in
          st.State.retry.State.max_attempts <- 1;
          let a = bytes_pattern file_bytes 3 and b = bytes_pattern file_bytes 5 in
          Hl.write_file hl "/a" a;
          Hl.write_file hl "/b" b;
          Fs.checkpoint (Hl.fs hl);
          st.State.restrict_volume <- Some 0;
          ignore (Migrator.migrate_paths st [ "/a"; "/b" ]);
          st.State.restrict_volume <- None;
          Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b" ];
          let first_hint = ref None in
          Hl.set_prefetch_hints hl (fun t ->
              if !first_hint = None then first_hint := Some (t + 1);
              [ t + 1 ]);
          let used = ref [] and wasted = ref [] in
          ignore
            (State.subscribe st (function
               | State.Prefetch_used t -> used := t :: !used
               | State.Prefetch_wasted t -> wasted := t :: !wasted
               | _ -> ())
              : unit -> unit);
          Sim.Fault.install engine ~metrics:(Hl.metrics hl)
            (parse_ok (Printf.sprintf "jb:drive* read op=%d media_error transient" op));
          check Alcotest.bool "/a ok" true (Bytes.equal (Hl.read_file hl "/a" ()) a);
          Sim.Engine.delay 60.0;
          let count name = Sim.Metrics.count (Sim.Metrics.counter st.State.metrics name) in
          check Alcotest.int "the prefetch failed" 1 (count "service.fetch_failures");
          (* the hint behind /a's first demand fetch is the one that failed *)
          let failed = Option.get !first_hint in
          let scored l = List.length (List.filter (( = ) failed) !l) in
          check Alcotest.int "partial lines" partial (count "cache.partial_lines");
          (if tail_only then begin
             (* past the prefix: a tail re-fetch is the first use; the
                line is then evicted untouched *)
             let off = Bytes.length b - 4096 in
             check Alcotest.bool "/b tail ok" true
               (Bytes.equal (Hl.read_file hl "/b" ~off ~len:4096 ()) (Bytes.sub b off 4096));
             Sim.Engine.delay 60.0;
             Hl.eject_tertiary_copies hl ~paths:[ "/b" ]
           end
           else check Alcotest.bool "/b ok" true (Bytes.equal (Hl.read_file hl "/b" ()) b));
          Sim.Engine.delay 60.0;
          check Alcotest.int "the partial line's tail re-fetched" partial
            (count "cache.tail_refetches");
          check Alcotest.int "scored used" want_used (scored used);
          check Alcotest.int "scored wasted" want_wasted (scored wasted);
          check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl);
          Hl.shutdown_service hl))

(* Used vs evicted-unused: a prefetched line demanded before eviction
   scores as accurate; one ejected untouched scores as wasted. *)
let test_prefetch_used_and_evicted_unused () =
  in_sim (fun engine ->
      let hl, _fp = make_slow_world engine in
      let fs = Hl.fs hl in
      let st = Hl.state hl in
      let a = bytes_pattern file_bytes 3
      and b = bytes_pattern file_bytes 5
      and c = bytes_pattern file_bytes 7 in
      Hl.write_file hl "/a" a;
      Hl.write_file hl "/b" b;
      Hl.write_file hl "/c" c;
      Fs.checkpoint fs;
      st.State.restrict_volume <- Some 0;
      (* one segment per file, consecutive tsegs: /a=0, /b=1, /c=2 *)
      ignore (Migrator.migrate_paths st [ "/a"; "/b"; "/c" ]);
      st.State.restrict_volume <- None;
      Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b"; "/c" ];
      Hl.set_prefetch_sequential hl ~depth:1;
      check Alcotest.bool "/a ok" true (Bytes.equal (Hl.read_file hl "/a" ()) a);
      Sim.Engine.delay 60.0 (* let the prefetch of /b's segment land *);
      check Alcotest.bool "/b ok (prefetch hit)" true (Bytes.equal (Hl.read_file hl "/b" ()) b);
      Sim.Engine.delay 60.0 (* reading /b prefetched /c's segment *);
      let count name = Sim.Metrics.count (Sim.Metrics.counter st.State.metrics name) in
      check Alcotest.bool "prefetch of /b counted used" true (count "prefetch.used" >= 1);
      (* eject /c's prefetched line untouched *)
      let unused =
        List.find_opt (fun l -> l.Seg_cache.prefetched) (Seg_cache.lines (Hl.cache hl))
      in
      (match unused with
      | Some line -> Evict.eject st line
      | None -> Alcotest.fail "expected a prefetched-but-unused line");
      check Alcotest.bool "eviction counted wasted" true (count "prefetch.evicted_unused" >= 1);
      let s = Hl.stats hl in
      check Alcotest.bool "accuracy reflects both outcomes" true
        (s.Hl.prefetch_accuracy > 0.0 && s.Hl.prefetch_accuracy < 1.0);
      Hl.shutdown_service hl)

(* ---------- the adaptive detector (unit) ---------- *)

let test_readahead_sequential_grows () =
  let ra = Readahead.create ~min_depth:1 ~max_depth:8 () in
  check (Alcotest.list Alcotest.int) "first miss: no speculation" [] (Readahead.hints ra ~tindex:10);
  check (Alcotest.list Alcotest.int) "second sequential miss hints" [ 12 ]
    (Readahead.hints ra ~tindex:11);
  Readahead.note_used ra;
  check Alcotest.int "depth doubled after a full accurate window" 2 (Readahead.depth ra);
  (* the next miss lands past the prefetched range: still in-window *)
  check (Alcotest.list Alcotest.int) "window tolerates prefetch-hit jump" [ 14; 15 ]
    (Readahead.hints ra ~tindex:13);
  Readahead.note_used ra;
  Readahead.note_used ra;
  check Alcotest.int "depth grows to 4" 4 (Readahead.depth ra);
  check Alcotest.bool "accuracy perfect so far" true (Readahead.accuracy ra = 1.0)

let test_readahead_random_stays_quiet () =
  let ra = Readahead.create () in
  let hints =
    List.concat_map (fun t -> Readahead.hints ra ~tindex:t) [ 40; 3; 91; 17; 60; 5 ]
  in
  check (Alcotest.list Alcotest.int) "random misses produce no hints" [] hints;
  check Alcotest.int "no wasted prefetches either" 0 (Readahead.wasted ra)

let test_readahead_waste_shrinks () =
  let ra = Readahead.create ~min_depth:1 ~max_depth:8 () in
  ignore (Readahead.hints ra ~tindex:1);
  ignore (Readahead.hints ra ~tindex:2);
  Readahead.note_used ra;
  Readahead.note_used ra;
  Readahead.note_used ra;
  check Alcotest.bool "grew" true (Readahead.depth ra >= 2);
  let d = Readahead.depth ra in
  Readahead.note_wasted ra;
  check Alcotest.int "waste halves the depth" (max 1 (d / 2)) (Readahead.depth ra);
  Readahead.note_wasted ra;
  Readahead.note_wasted ra;
  Readahead.note_wasted ra;
  check Alcotest.int "bounded below by min_depth" 1 (Readahead.depth ra);
  check Alcotest.bool "accuracy dropped" true (Readahead.accuracy ra < 0.5)

(* ---------- victim choice across policies ---------- *)

let test_victim_policies () =
  (* LRU, including the lazy-heap paths: touch reorders, pinned top is
     skipped (and restored), removal leaves no stale winner, and
     repeated probes without eviction agree *)
  let c = Seg_cache.create ~policy:Seg_cache.Lru ~max_lines:8 () in
  let l1 = Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Resident ~now:1.0 in
  let l2 = Seg_cache.insert c ~tindex:2 ~disk_seg:2 ~state:Seg_cache.Resident ~now:2.0 in
  let l3 = Seg_cache.insert c ~tindex:3 ~disk_seg:3 ~state:Seg_cache.Resident ~now:3.0 in
  let victim () =
    match Seg_cache.choose_victim c with
    | Some l -> l.Seg_cache.tindex
    | None -> Alcotest.fail "expected a victim"
  in
  check Alcotest.int "lru: oldest" 1 (victim ());
  check Alcotest.int "lru: probe is stable" 1 (victim ());
  Seg_cache.touch c l1 ~now:10.0;
  check Alcotest.int "lru: touch reorders" 2 (victim ());
  Seg_cache.pin l2;
  check Alcotest.int "lru: pinned top skipped" 3 (victim ());
  Seg_cache.unpin c l2;
  check Alcotest.int "lru: unpin restores order" 2 (victim ());
  Seg_cache.remove c l2;
  check Alcotest.int "lru: removal is not a stale winner" 3 (victim ());
  Seg_cache.touch c l3 ~now:11.0;
  check Alcotest.int "lru: down to the touched pair" 1 (victim ());
  ignore l3;
  (* Random: deterministic under the seed, always a member, never
     pinned *)
  let c = Seg_cache.create ~policy:Seg_cache.Random_evict ~seed:7 ~max_lines:8 () in
  let r1 = Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Resident ~now:1.0 in
  let _r2 = Seg_cache.insert c ~tindex:2 ~disk_seg:2 ~state:Seg_cache.Resident ~now:2.0 in
  let _r3 = Seg_cache.insert c ~tindex:3 ~disk_seg:3 ~state:Seg_cache.Resident ~now:3.0 in
  Seg_cache.pin r1;
  for _ = 1 to 16 do
    match Seg_cache.choose_victim c with
    | Some l ->
        check Alcotest.bool "random: candidate member" true
          (List.mem l.Seg_cache.tindex [ 2; 3 ])
    | None -> Alcotest.fail "expected a victim"
  done;
  (* Least-worthy: a never-re-referenced line goes before a worthy one,
     oldest fetch first *)
  let c = Seg_cache.create ~policy:Seg_cache.Least_worthy ~max_lines:8 () in
  let w1 = Seg_cache.insert c ~tindex:1 ~disk_seg:1 ~state:Seg_cache.Resident ~now:1.0 in
  let _w2 = Seg_cache.insert c ~tindex:2 ~disk_seg:2 ~state:Seg_cache.Resident ~now:2.0 in
  let _w3 = Seg_cache.insert c ~tindex:3 ~disk_seg:3 ~state:Seg_cache.Resident ~now:3.0 in
  (* two touches make w1 worthy (first only raises last_use) *)
  Seg_cache.touch c w1 ~now:4.0;
  Seg_cache.touch c w1 ~now:5.0;
  (match Seg_cache.choose_victim c with
  | Some l -> check Alcotest.int "least-worthy: oldest unworthy fetch" 2 l.Seg_cache.tindex
  | None -> Alcotest.fail "expected a victim")

let suite =
  [
    ( "streaming.fetch",
      [
        Alcotest.test_case "first-block wakeup beats blocking 2x" `Quick test_first_block_wakeup;
        Alcotest.test_case "first-block histogram below full-fetch" `Quick
          test_first_block_histogram;
        Alcotest.test_case "mid-stream media error: prefix served, suffix EIO" `Quick
          test_midstream_media_error;
      ] );
    ( "streaming.writeout",
      [
        Alcotest.test_case "mid-write media error: retry leaves volume consistent" `Quick
          test_midwrite_media_error;
      ] );
    ( "streaming.idle",
      [
        Alcotest.test_case "idle readahead issues, demand preempts" `Quick
          test_idle_readahead_issue_and_preempt;
      ] );
    ( "streaming.prefetch",
      [
        Alcotest.test_case "hint into full cache dropped and counted" `Quick
          test_hint_into_full_cache;
        Alcotest.test_case "hint to clean tindex ignored" `Quick test_hint_clean_tindex_ignored;
        Alcotest.test_case "used vs evicted-unused accounting" `Quick
          test_prefetch_used_and_evicted_unused;
        Alcotest.test_case "failed prefetch scored once" `Quick
          (failed_prefetch ~op:8 ~partial:1 ~used:1 ~wasted:0);
        Alcotest.test_case "failed prefetch without a line wasted" `Quick
          (failed_prefetch ~op:7 ~partial:0 ~used:0 ~wasted:1);
        Alcotest.test_case "failed prefetch used by a tail re-fetch" `Quick
          (failed_prefetch ~tail_only:true ~op:8 ~partial:1 ~used:1 ~wasted:0);
      ] );
    ( "streaming.readahead",
      [
        Alcotest.test_case "sequential run grows depth" `Quick test_readahead_sequential_grows;
        Alcotest.test_case "random run stays quiet" `Quick test_readahead_random_stays_quiet;
        Alcotest.test_case "waste shrinks depth" `Quick test_readahead_waste_shrinks;
      ] );
    ( "streaming.victim",
      [ Alcotest.test_case "victim choice across all policies" `Quick test_victim_policies ] );
  ]
