(* Recycling on the failure paths: segment buffers ([Util.Bufpool]
   behind [Fs.segbufs]) and the instance's segment images
   ([State.take_image]). A buffer or an image that a device or a reader
   may still touch must never be back in its pool, and every image must
   go back once nothing can. Each case drives a fault plan, checks
   every read against an in-memory model of the files, and audits with
   [Hl.check] (which names an image that is neither attached nor held
   by a write-out, or attached and pooled) and [Debug.fsck]. Each case
   also runs a scribble probe: take a buffer and an image, fill them
   with a pattern, let the simulation run on, and require the pattern
   intact. Both pools hand out the most recently given one first, so
   one given back while a late writer still holds it is the one the
   probe gets, and the late write shows. *)

open Highlight
open Lfs

let check = Alcotest.check
let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let parse_ok text =
  match Sim.Fault.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.fail ("fault plan did not parse: " ^ msg)

let in_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (Fun.protect ~finally:Sim.Fault.clear (fun () -> f e)));
  Sim.Engine.run e;
  (match !result with Some () -> () | None -> Alcotest.fail "sim process did not finish");
  check (Alcotest.list Alcotest.string) "nothing left blocked" [] (Sim.Engine.blocked_process_names e)

let seg_blocks = 16
let bs = 4096

(* 12 data blocks, all direct: with the summary (and the inode block,
   when inodes migrate) they fit one staged segment *)
let small_bytes = 12 * bs

type world = { hl : Hl.t; st : State.t; model : (string, Bytes.t) Hashtbl.t }

(* A slow tertiary read (a segment takes seconds to stream in 4-block
   chunks) and a fast tertiary write. [disk_read_rate] swaps the
   zero-latency cache disk for a timed one whose reads are that slow,
   so a write-out's staging read is still in flight when its tertiary
   side fails. *)
let make_world ?disk_read_rate ?(cache_segs = 12) ?(real_segs_per_vol = 8) engine =
  let prm = Param.for_tests ~seg_blocks ~nsegs:64 () in
  let disk =
    match disk_read_rate with
    | None ->
        Dev.of_store
          (Device.Blockstore.create ~block_size:bs ~nblocks:(Layout.disk_blocks prm))
    | Some read_rate ->
        Dev.of_disk
          (Device.Disk.create engine { Device.Disk.rz57 with read_rate } ~name:"slow-read")
  in
  let media =
    {
      Device.Jukebox.hp6300_platter with
      Device.Jukebox.media_name = "slow-read test platter";
      read_rate = 32.0 *. 1024.0;
      write_rate = 512.0 *. 1024.0;
      seek_const = 0.01;
    }
  in
  let changer = { Device.Jukebox.swap_time = 0.5; hogs_bus = false } in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:4
      ~vol_capacity:(real_segs_per_vol * seg_blocks) ~media ~changer "jb"
  in
  let fp = Footprint.create ~seg_blocks ~segs_per_volume:8 [ jb ] in
  let hl = Hl.mkfs engine prm ~disk ~fp ~cache_segs () in
  let st = Hl.state hl in
  st.State.stream_chunk_blocks <- 4;
  { hl; st; model = Hashtbl.create 8 }

let write w path data =
  Hl.write_file w.hl path data;
  Hashtbl.replace w.model path data

let migrate w paths =
  Fs.checkpoint (Hl.fs w.hl);
  ignore (Migrator.migrate_paths w.st paths);
  Hl.eject_tertiary_copies w.hl ~paths

let verify w what =
  List.iter
    (fun path ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s matches the model" what path)
        true
        (Bytes.equal (Hl.read_file w.hl path ()) (Hashtbl.find w.model path)))
    (List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) w.model []))

let audit w what =
  check (Alcotest.list Alcotest.string) (what ^ ": Hl.check") [] (Hl.check w.hl);
  check (Alcotest.list Alcotest.string) (what ^ ": fsck") [] (Debug.fsck (Hl.fs w.hl))

let probe w what =
  let pool = Fs.segbufs (Hl.fs w.hl) in
  let buf = Util.Bufpool.take pool in
  let b = Util.Bufpool.bytes buf in
  let pattern = bytes_pattern (Bytes.length b) 0x5a in
  Bytes.blit pattern 0 b 0 (Bytes.length b);
  let image = State.take_image w.st in
  Device.Blockstore.write_from image ~blk:0 ~src:pattern ~src_off:0 ~count:seg_blocks;
  Sim.Engine.delay 60.0;
  check Alcotest.bool (what ^ ": a taken buffer has one writer") true (Bytes.equal b pattern);
  let seen = Bytes.create (Bytes.length pattern) in
  Device.Blockstore.read_into image ~blk:0 ~count:seg_blocks ~dst:seen ~dst_off:0;
  check Alcotest.bool (what ^ ": a taken image has one writer") true (Bytes.equal seen pattern);
  State.give_image w.st image;
  Util.Bufpool.give pool buf

let counter w name = Sim.Metrics.count (Sim.Metrics.counter (Hl.metrics w.hl) name)

(* A media error mid-way through a streaming fetch, no retries: the
   delivered prefix stays on a Partial line, which keeps serving from
   its image, so [fail_fetch] must not give that image back. Then a
   read past the watermark re-fetches only the tail into the same
   image. *)
let test_fetch_fault_partial () =
  in_sim (fun engine ->
      let w = make_world engine in
      write w "/a" (bytes_pattern small_bytes 7);
      migrate w [ "/a" ];
      let fs = Hl.fs w.hl in
      let ino = Dir.namei fs "/a" in
      w.st.State.retry.State.max_attempts <- 1;
      (* drive read ops: 1 = pre-transfer check, 2.. = the 4-block
         chunks; op=3 fails the second chunk *)
      Sim.Fault.install engine ~metrics:(Hl.metrics w.hl)
        (parse_ok "jb:drive* read op=3 media_error transient");
      let data = Hashtbl.find w.model "/a" in
      check Alcotest.bool "prefix block served" true
        (Bytes.equal (File.read fs ino ~off:0 ~len:bs) (Bytes.sub data 0 bs));
      (match File.read fs ino ~off:(11 * bs) ~len:bs with
      | _ -> Alcotest.fail "a block past the failed chunk was served"
      | exception State.Io_error _ -> ());
      Sim.Fault.clear ();
      w.st.State.retry.State.max_attempts <- 8;
      (match Seg_cache.lines (Hl.cache w.hl) with
      | [ l ] ->
          check Alcotest.bool "the prefix lives on as a Partial line" true
            (l.Seg_cache.state = Seg_cache.Partial && l.Seg_cache.image <> None)
      | _ -> Alcotest.fail "expected exactly one cache line");
      audit w "partial line";
      probe w "partial line";
      check Alcotest.bool "prefix re-read from the Partial line's image" true
        (Bytes.equal (File.read fs ino ~off:bs ~len:bs) (Bytes.sub data bs bs));
      verify w "after the tail re-fetch";
      check Alcotest.bool "the tail was re-fetched" true (counter w "cache.tail_refetches" >= 1);
      audit w "after the tail re-fetch";
      Hl.shutdown_service w.hl)

(* A fetch whose very first jukebox operation fails, no retries: the
   line leaves the directory with nothing delivered, and the image it
   took must go back to the pool — a lost image would pin its pages
   and make every later write to them copy. *)
let test_fetch_fails_before_first_chunk () =
  in_sim (fun engine ->
      let w = make_world engine in
      write w "/f" (bytes_pattern small_bytes 11);
      migrate w [ "/f" ];
      let fs = Hl.fs w.hl in
      let ino = Dir.namei fs "/f" in
      w.st.State.retry.State.max_attempts <- 1;
      (* drive read op 1 is the stream's pre-transfer check *)
      Sim.Fault.install engine ~metrics:(Hl.metrics w.hl)
        (parse_ok "jb:drive* read op=1 media_error transient");
      (match File.read fs ino ~off:0 ~len:bs with
      | _ -> Alcotest.fail "a block was served by a fetch that delivered nothing"
      | exception State.Io_error _ -> ());
      Sim.Fault.clear ();
      w.st.State.retry.State.max_attempts <- 8;
      check Alcotest.int "the line left the directory" 0 (Seg_cache.length (Hl.cache w.hl));
      check Alcotest.int "no image out" 0 w.st.State.images.State.images_out;
      audit w "failed fetch";
      probe w "failed fetch";
      verify w "after the failed fetch";
      audit w "after the re-fetch";
      Hl.shutdown_service w.hl)

(* A tertiary write torn after its first chunk, no retries, while the
   cache disk is still sharing the segment into the write-out's image:
   the read in flight lands after [fail_writeout], so the image must
   stay out of the pool until that read is over. The next ticket
   resumes at the written prefix. *)
let test_torn_writeout_resumes () =
  in_sim (fun engine ->
      (* 8 KB/s: each 4-block staging read takes 2 s, far longer than
         the tertiary write of a chunk *)
      let w = make_world ~disk_read_rate:8192.0 engine in
      let fs = Hl.fs w.hl in
      write w "/w" (bytes_pattern small_bytes 5);
      Fs.checkpoint fs;
      ignore (Migrator.stage_files_only w.st [ (Dir.namei fs "/w").Inode.inum ]);
      w.st.State.retry.State.max_attempts <- 1;
      Sim.Fault.install engine ~metrics:(Hl.metrics w.hl)
        (parse_ok "jb:drive* write op=2 media_error transient");
      ignore (Migrator.flush_staged w.st ());
      check Alcotest.int "the write-out failed" 1 (counter w "service.writeout_failures");
      probe w "torn write-out";
      Sim.Fault.clear ();
      w.st.State.retry.State.max_attempts <- 8;
      ignore (Migrator.flush_staged w.st ());
      check Alcotest.int "the next ticket completed" 1 (counter w "service.writeouts");
      Fs.checkpoint fs;
      Hl.eject_tertiary_copies w.hl ~paths:[ "/w" ];
      verify w "resumed write-out";
      audit w "resumed write-out";
      Hl.shutdown_service w.hl)

(* End of medium: volumes hold 3 real segments but advertise 8, so
   write-outs re-home onto the next volume with their image and read
   watermark carried over; a torn chunk on the way is retried. *)
let test_end_of_medium_rehome () =
  in_sim (fun engine ->
      let w = make_world ~real_segs_per_vol:3 engine in
      List.iter
        (fun i -> write w (Printf.sprintf "/r%d" i) (bytes_pattern small_bytes (20 + i)))
        [ 0; 1; 2; 3; 4 ];
      Sim.Fault.install engine ~metrics:(Hl.metrics w.hl)
        (parse_ok "jb:drive* write op=3 media_error transient");
      migrate w (List.init 5 (Printf.sprintf "/r%d"));
      Sim.Fault.clear ();
      check Alcotest.bool "write-outs re-homed" true (counter w "service.rehomes" >= 1);
      check Alcotest.bool "a torn chunk was retried" true (counter w "service.retries" >= 1);
      probe w "after re-homing";
      verify w "re-homed segments";
      audit w "re-homed segments";
      Hl.shutdown_service w.hl)

(* Six files, migrated together into several tertiary segments, read
   through a three-line cache under transient read faults: every round
   fetches, evicts lines that still hold their images and recycles
   those images, while new partials take and give buffers between the
   rounds. *)
let test_evictions_full_cache () =
  in_sim (fun engine ->
      let w = make_world ~cache_segs:3 engine in
      let paths = List.init 6 (Printf.sprintf "/e%d") in
      List.iteri (fun i p -> write w p (bytes_pattern small_bytes (40 + i))) paths;
      migrate w paths;
      Sim.Fault.install engine ~metrics:(Hl.metrics w.hl)
        (parse_ok "seed=3\njb:drive* read prob=0.2 media_error transient");
      for round = 1 to 3 do
        write w "/scratch" (bytes_pattern (3 * bs) round);
        verify w (Printf.sprintf "round %d" round);
        check (Alcotest.list Alcotest.string) "Hl.check" [] (Hl.check w.hl)
      done;
      Sim.Fault.clear ();
      check Alcotest.bool "lines were evicted" true (counter w "cache.evictions" >= 6);
      probe w "after evictions";
      verify w "after evictions";
      audit w "after evictions";
      Hl.shutdown_service w.hl)

(* A staging image comes from the pool holding whatever its last user
   left there, and the whole image goes to the cache disk: the migrator
   must zero it, or a small segment staged after a full one carries the
   full one's blocks in its unused tail. *)
let test_recycled_staging_tail_is_zero () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      write w "/full" (bytes_pattern small_bytes 1);
      write w "/more" (bytes_pattern (3 * bs) 2);
      write w "/small" (bytes_pattern (2 * bs) 3);
      Fs.checkpoint fs;
      let data_pairs path n =
        let inum = (Dir.namei fs path).Inode.inum in
        List.init n (fun i -> (inum, Bkey.Data i))
      in
      (match Migrator.stage_only w.st (data_pairs "/full" 12 @ data_pairs "/more" 3) with
      | [ _ ] -> ()
      | l -> Alcotest.failf "expected one full staged segment, got %d" (List.length l));
      check Alcotest.int "one segment buffer, so the next stage reuses it" 1
        (Util.Bufpool.free_count (Fs.segbufs fs));
      let tindex =
        match Migrator.stage_only w.st (data_pairs "/small" 2) with
        | [ t ] -> t
        | l -> Alcotest.failf "expected one small staged segment, got %d" (List.length l)
      in
      let line =
        match Seg_cache.find (Hl.cache w.hl) tindex with
        | Some l -> l
        | None -> Alcotest.fail "staged line missing"
      in
      let base = State.disk_seg_base w.st line.Seg_cache.disk_seg in
      let block k = w.st.State.disk.Dev.read ~blk:(base + k) ~count:1 in
      let small = Hashtbl.find w.model "/small" in
      check Alcotest.bool "payload staged" true
        (Bytes.equal (Bytes.cat (block 1) (block 2)) small);
      for k = 3 to seg_blocks - 1 do
        check Alcotest.bool (Printf.sprintf "tail block %d is zero" k) true
          (Util.Bytesx.is_zero (block k))
      done;
      ignore (Migrator.flush_staged w.st ());
      Hl.eject_tertiary_copies w.hl ~paths:[ "/full"; "/more"; "/small" ];
      verify w "staged files";
      audit w "staged files";
      Hl.shutdown_service w.hl)

(* The migrator zeroes only the image's tail past its last packed
   block, so everything before it must be overwritten: with every free
   segment buffer pre-dirtied, a short segment must still reach the
   cache disk as summary, payload, then zeros. *)
let test_staging_tail_zeroed_over_dirt () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fs = Hl.fs w.hl in
      write w "/small" (bytes_pattern (2 * bs) 5);
      Fs.checkpoint fs;
      let pool = Fs.segbufs fs in
      let bufs = List.init (max 1 (Util.Bufpool.free_count pool)) (fun _ -> Util.Bufpool.take pool) in
      List.iter
        (fun b ->
          let d = Util.Bufpool.bytes b in
          Bytes.fill d 0 (Bytes.length d) '\xAA')
        bufs;
      List.iter (Util.Bufpool.give pool) bufs;
      let inum = (Dir.namei fs "/small").Inode.inum in
      let tindex =
        match Migrator.stage_only w.st [ (inum, Bkey.Data 0); (inum, Bkey.Data 1) ] with
        | [ t ] -> t
        | l -> Alcotest.failf "expected one staged segment, got %d" (List.length l)
      in
      let line =
        match Seg_cache.find (Hl.cache w.hl) tindex with
        | Some l -> l
        | None -> Alcotest.fail "staged line missing"
      in
      let base = State.disk_seg_base w.st line.Seg_cache.disk_seg in
      let block k = w.st.State.disk.Dev.read ~blk:(base + k) ~count:1 in
      check Alcotest.bool "summary block parses" true
        (Result.is_ok (Summary.deserialize (block 0)));
      check Alcotest.bool "payload staged" true
        (Bytes.equal (Bytes.cat (block 1) (block 2)) (Hashtbl.find w.model "/small"));
      for k = 3 to seg_blocks - 1 do
        check Alcotest.bool (Printf.sprintf "tail block %d is zero" k) true
          (Util.Bytesx.is_zero (block k))
      done;
      ignore (Migrator.flush_staged w.st ());
      Hl.eject_tertiary_copies w.hl ~paths:[ "/small" ];
      verify w "staged over dirt";
      audit w "staged over dirt";
      Hl.shutdown_service w.hl)

(* Migrations that the staging writer must split or retry, on 1 MB
   segments and a timed disk named d0, so a fault plan can hit the
   staging write. The files are read back from the jukebox: ejected,
   with every cache dropped. *)
let big_seg = 256

let disk_world engine =
  let prm = Param.for_tests ~seg_blocks:big_seg ~nsegs:24 () in
  let disk = Dev.of_disk (Device.Disk.create engine Device.Disk.rz57 ~name:"d0") in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:2 ~vol_capacity:(8 * big_seg)
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp = Footprint.create ~seg_blocks:big_seg ~segs_per_volume:8 [ jb ] in
  let hl = Hl.mkfs engine prm ~disk ~fp ~cache_segs:6 () in
  { hl; st = Hl.state hl; model = Hashtbl.create 256 }

let read_back_from_tertiary w what =
  Hl.eject_tertiary_copies w.hl ~paths:(Hashtbl.fold (fun p _ acc -> p :: acc) w.model []);
  Fs.drop_caches (Hl.fs w.hl);
  verify w what;
  audit w what

(* 254 one-block files need 40 + 254 * 16 bytes of summary, more than a
   block: the writer reports the first staging line full after 253 of
   them and the migrator starts another. *)
let test_staging_splits_on_summary_space () =
  in_sim (fun engine ->
      let w = disk_world engine in
      let paths = List.init 254 (Printf.sprintf "/s%03d") in
      List.iteri (fun i path -> write w path (bytes_pattern bs (40 + i))) paths;
      Fs.checkpoint (Hl.fs w.hl);
      let tsegs = Migrator.migrate_paths w.st paths in
      check Alcotest.bool "the data staged into at least two lines" true (List.length tsegs >= 2);
      read_back_from_tertiary w "summary-space split";
      Hl.shutdown_service w.hl)

(* The staging write is a disk write like the log's: a transient media
   error on it is retried, not raised out of the migrator. *)
let test_staging_write_retried () =
  in_sim (fun engine ->
      let w = disk_world engine in
      write w "/t" (bytes_pattern (12 * bs) 77);
      let fs = Hl.fs w.hl in
      Fs.checkpoint fs;
      (* after the checkpoint nothing is dirty: the first disk write is
         the staging write *)
      Sim.Fault.install engine ~metrics:(Hl.metrics w.hl)
        (parse_ok "disk:d0 write op=1 media_error transient");
      ignore (Migrator.stage_files_only w.st [ (Dir.namei fs "/t").Inode.inum ]);
      Sim.Fault.clear ();
      check Alcotest.int "the staging write was retried once" 1 (counter w "service.retries");
      ignore (Migrator.flush_staged w.st ());
      Fs.checkpoint fs;
      read_back_from_tertiary w "retried staging write";
      Hl.shutdown_service w.hl)

(* A staging write that exhausts its retries must leave nothing pointing
   into the line: the migrator raises, the line and its disk and
   tertiary segments go back, and the file still reads back right. *)
let test_failed_staging_write_moves_nothing () =
  in_sim (fun engine ->
      let w = disk_world engine in
      write w "/t" (bytes_pattern (12 * bs) 78);
      let fs = Hl.fs w.hl in
      Fs.checkpoint fs;
      w.st.State.retry.State.max_attempts <- 1;
      Sim.Fault.install engine ~metrics:(Hl.metrics w.hl)
        (parse_ok "disk:d0 write op=1 media_error transient");
      (match Migrator.stage_files_only w.st [ (Dir.namei fs "/t").Inode.inum ] with
      | _ -> Alcotest.fail "the staging write did not fail"
      | exception State.Io_error _ -> ());
      Sim.Fault.clear ();
      w.st.State.retry.State.max_attempts <- 8;
      ignore (Migrator.flush_staged w.st ());
      read_back_from_tertiary w "failed staging write";
      check Alcotest.int "no cache line left" 0 (Seg_cache.length (Hl.cache w.hl));
      check Alcotest.int "no tertiary segment used" 0 (State.tertiary_segments_used w.st);
      Hl.shutdown_service w.hl)

let suite =
  [
    ( "segbufs.failures",
      [
        Alcotest.test_case "mid-stream fetch fault keeps the Partial image" `Quick
          test_fetch_fault_partial;
        Alcotest.test_case "fetch failing before its first chunk gives its image back" `Quick
          test_fetch_fails_before_first_chunk;
        Alcotest.test_case "torn write-out keeps its image, next ticket resumes" `Quick
          test_torn_writeout_resumes;
        Alcotest.test_case "end-of-medium re-home" `Quick test_end_of_medium_rehome;
        Alcotest.test_case "evictions under a full cache" `Quick test_evictions_full_cache;
        Alcotest.test_case "pre-dirtied staging image: zeros past the last block" `Quick
          test_staging_tail_zeroed_over_dirt;
        Alcotest.test_case "recycled staging image has a zero tail" `Quick
          test_recycled_staging_tail_is_zero;
        Alcotest.test_case "staging splits a line on summary space" `Quick
          test_staging_splits_on_summary_space;
        Alcotest.test_case "transient fault on the staging write is retried" `Quick
          test_staging_write_retried;
        Alcotest.test_case "failed staging write moves no pointer" `Quick
          test_failed_staging_write_moves_nothing;
      ] );
  ]
