(* Media-bytes oracle: a fixed hierarchy scenario must leave exactly
   these bytes and written maps on the cache disk, on a crash image of
   it, and on every volume. The scenario walks every move that takes
   or gives up a shared page — write-outs, demand fetches, a fetch torn
   mid-stream and its tail re-fetch, a fetch whose volume is reclaimed
   under it, a tertiary clean that erases a volume, the log writing
   over a former cache line, a crash image and its remount — so a write
   that skips copy-on-write, a read that exposes an unwritten block, or
   a landing that shares from the wrong place moves a digest here. *)

open Highlight
open Lfs

let check = Alcotest.check

let in_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "sim process did not finish"

let bs = 4096
let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 13) + (i / bs)) land 0xff))

(* One line per store: written-block count, digest of the written map,
   digest of every written block's address and CRC. The store is read
   in one piece, so pages with written and unwritten blocks are read
   whole; every unwritten block must read back as zeros. *)
let store_summary name store =
  let n = Device.Blockstore.nblocks store in
  let bsz = Device.Blockstore.block_size store in
  let all = Bytes.create (n * bsz) in
  Device.Blockstore.read_into store ~blk:0 ~count:n ~dst:all ~dst_off:0;
  let map = Bytes.make n '0' in
  let crcs = Buffer.create 4096 in
  let exposed = ref 0 in
  for blk = 0 to n - 1 do
    if Device.Blockstore.is_written store blk then begin
      Bytes.set map blk '1';
      Buffer.add_string crcs
        (Printf.sprintf "%d:%08x;" blk (Util.Crc32.bytes ~off:(blk * bsz) ~len:bsz all))
    end
    else if not (Util.Bytesx.is_zero (Bytes.sub all (blk * bsz) bsz)) then incr exposed
  done;
  check Alcotest.int (name ^ ": unwritten blocks read as zeros") 0 !exposed;
  Printf.sprintf "%s %d %s %s" name
    (Device.Blockstore.written_blocks store)
    (Digest.to_hex (Digest.bytes map))
    (Digest.to_hex (Digest.string (Buffer.contents crcs)))

let scenario ~seg_blocks engine =
  let prm = Param.for_tests ~seg_blocks ~nsegs:24 () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size ~nblocks:(Layout.disk_blocks prm)
  in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:4 ~vol_capacity:(8 * seg_blocks)
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp = Footprint.create ~seg_blocks ~segs_per_volume:8 [ jb ] in
  let volumes () =
    List.init (Device.Jukebox.nvolumes jb) (fun vol ->
        store_summary (Printf.sprintf "vol%d" vol) (Device.Jukebox.volume_store jb vol))
  in
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:6 () in
  (* one line for every medium at an intermediate step, whose effect a
     later step could overwrite *)
  let steps = ref [] in
  let snap step =
    let lines = store_summary "disk" store :: volumes () in
    steps := Printf.sprintf "%s %s" step (Digest.to_hex (Digest.string (String.concat "\n" lines))) :: !steps
  in
  Hl.set_streaming_fetch hl true;
  let st = Hl.state hl in
  st.State.stream_chunk_blocks <- 8;
  let fsys = Hl.fs hl in
  let file name blocks seed = (name, bytes_pattern ((blocks * bs) + (seed * 97)) seed) in
  let f0 = file "/f0" 45 1 and f1 = file "/f1" 70 2 and f2 = file "/f2" 30 3 in
  let f3 = file "/f3" 90 4 and f4 = file "/f4" 20 5 and z = file "/z" 12 6 in
  (* every disk segment that has served as a cache line *)
  let held = ref [] in
  let expect hl (path, data) =
    check Alcotest.bool (path ^ " reads back") true (Bytes.equal (Hl.read_file hl path ()) data);
    List.iter
      (fun l ->
        let seg = l.Seg_cache.disk_seg in
        if seg >= 0 && not (List.mem seg !held) then held := seg :: !held)
      (Seg_cache.lines (Hl.cache hl))
  in
  (* stage and write out, one volume per group *)
  let stage vol files =
    List.iter (fun (path, data) -> Hl.write_file hl path data) files;
    Fs.checkpoint fsys;
    st.State.restrict_volume <- Some vol;
    ignore (Migrator.migrate_paths st (List.map fst files));
    st.State.restrict_volume <- None
  in
  stage 0 [ f0; f2 ];
  stage 2 [ f1 ];
  stage 1 [ f3; f4 ];
  stage 3 [ z ];
  snap "written-out";
  let all = [ f0; f1; f2; f3; f4; z ] in
  Hl.eject_tertiary_copies hl ~paths:(List.map fst all);
  (* demand fetch; the read returns at its first chunk, so let the
     fetches finish before the next step counts drive operations *)
  expect hl f0;
  Sim.Engine.delay 60.0;
  (* a fetch torn after its first chunk leaves a Partial line; reading
     past it re-fetches the tail *)
  let attempts = st.State.retry.State.max_attempts in
  Fun.protect ~finally:Sim.Fault.clear (fun () ->
      st.State.retry.State.max_attempts <- 1;
      (match Sim.Fault.parse "jb:drive* read op=3 media_error transient" with
      | Ok plan -> Sim.Fault.install engine ~metrics:(Hl.metrics hl) plan
      | Error msg -> Alcotest.fail msg);
      let path, data = f1 in
      check Alcotest.bool "torn fetch serves its prefix" true
        (Bytes.equal (Hl.read_file hl path ~off:0 ~len:bs ()) (Bytes.sub data 0 bs));
      Sim.Engine.delay 60.0);
  st.State.retry.State.max_attempts <- attempts;
  check Alcotest.bool "torn fetch left a partial line" true
    (List.exists
       (fun l -> l.Seg_cache.state = Seg_cache.Partial)
       (Seg_cache.lines (Hl.cache hl)));
  expect hl f1;
  check Alcotest.bool "tail re-fetched" true ((Hl.stats hl).Hl.tail_refetch_bytes > 0);
  (* the volume under an in-flight fetch is reclaimed after its first
     chunk: the rest of the stream reads an erased medium, and the
     landing must keep exactly what the fetch delivered *)
  let path, data = z in
  check Alcotest.bool "fetch before reclaim serves its prefix" true
    (Bytes.equal (Hl.read_file hl path ~off:0 ~len:bs ()) (Bytes.sub data 0 bs));
  Footprint.erase_volume fp 3;
  Sim.Engine.delay 60.0;
  snap "reclaimed";
  Dir.unlink fsys path;
  (* a tertiary clean: f4 dies, f3 is re-migrated, volume 1 is erased *)
  Dir.unlink fsys (fst f4);
  Fs.checkpoint fsys;
  ignore (Tertiary_cleaner.clean_volume st 1);
  expect hl f3;
  snap "cleaned";
  (* the log writes over former cache lines *)
  Hl.eject_tertiary_copies hl ~paths:[ fst f0; fst f1; fst f2; fst f3 ];
  let reused () =
    List.exists
      (fun seg ->
        match (Segusage.get (Fs.seguse fsys) seg).Segusage.state with
        | Segusage.Dirty | Segusage.Active -> true
        | Segusage.Clean | Segusage.Cached -> false)
      !held
  in
  let rec grow_log acc i =
    if reused () || i = 12 then List.rev acc
    else begin
      let ((path, data) as f) = file (Printf.sprintf "/n%d" i) (50 + (i * 7)) (20 + i) in
      Hl.write_file hl path data;
      Fs.checkpoint fsys;
      grow_log (f :: acc) (i + 1)
    end
  in
  let fresh = grow_log [] 0 in
  check Alcotest.bool "the log reused a former cache line" true (reused ());
  Fs.flush fsys;
  (* crash image and remount; the remount fetches through its own copy *)
  let img = Fs.crash_image fsys store in
  let hl2 = Hl.mount engine ~disk:(Dev.of_store img) ~fp ~cpu:Param.cpu_free () in
  List.iter (expect hl2) ([ f0; f1; f2; f3 ] @ fresh);
  check (Alcotest.list Alcotest.string) "remount invariants" [] (Hl.check hl2);
  List.iter (expect hl) ([ f0; f1; f2; f3 ] @ fresh);
  let final = store_summary "disk" store :: store_summary "crash" img :: volumes () in
  List.rev_append !steps final

(* Recorded from the block store before pages were shared, which copied
   every move; 48-block segments straddle pages, so their moves mix
   shared and copied pages. *)
let golden =
  [
    ( 64,
      [
        "written-out c7de9a1b24e2226524f3b30dd303e1e9";
        "reclaimed da938543605e90656073dbb52dfd0e00";
        "cleaned 859860bca1b66e470e71ffd2a6cc0e45";
        "disk 1539 3da5cef141262cdc9a359fa71a0d576d 92fd87827e7f5149411b70e2e127954a";
        "crash 1539 3da5cef141262cdc9a359fa71a0d576d e4a10d287e9aad45f6d1e65af2ed9d90";
        "vol0 256 1e8b616a168a350aad82f2a69cc0a5f1 d71c8dae8d4cde31b97c36986aa45910";
        "vol1 0 b87c147ac70572c4525496355f2a602a d41d8cd98f00b204e9800998ecf8427e";
        "vol2 256 1e8b616a168a350aad82f2a69cc0a5f1 26b7617dcba8c6e8ea13814816e50779";
        "vol3 128 2b54fc2d532df4d59c982bb14ef5fb4a b36b5d5576aa46cb64036d5413f56305";
      ] );
    ( 48,
      [
        "written-out f241961bbd8946ffba38d8bad2002b17";
        "reclaimed 6acca0ea1111abd967528fb1fb40d5d1";
        "cleaned c92cf479d8a89f04cd430c3806f18c44";
        "disk 1155 e16f9b60bc4e0540d31b48a4f5a4c447 44f9669f977e6b98ae32a5ddbf1f1ceb";
        "crash 1155 e16f9b60bc4e0540d31b48a4f5a4c447 e7604c7616416fb033b5f57b9355c77c";
        "vol0 192 565ec18effdbc3c94163ff36c6bfe7e8 5fb190788295a2cb746750892d8aa8c4";
        "vol1 0 253b10acb1761139ae150999bbf92d54 d41d8cd98f00b204e9800998ecf8427e";
        "vol2 192 565ec18effdbc3c94163ff36c6bfe7e8 c8e200a2e541c7743893f4ab11ac2c2a";
        "vol3 96 e456c1de1a56d64c3bb2a1d86c89ce4a 1147ba167edeff19273c8574806cef7e";
      ] );
  ]

let test_media_oracle () =
  let got = List.map (fun (seg_blocks, _) -> (seg_blocks, in_sim (scenario ~seg_blocks))) golden in
  (* the log shows every line, for re-recording after a deliberate change *)
  List.iter
    (fun (seg_blocks, lines) -> List.iter (Printf.printf "%d %s\n" seg_blocks) lines)
    got;
  List.iter2
    (fun (seg_blocks, want) (_, got) ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "media with %d-block segments" seg_blocks)
        want got)
    golden got

(* Zero copy: with 1 MB segments on page boundaries everywhere, a
   write-out and a fetch with its landing move only page references.
   [Blockstore.blocks_copied] counts every block a store took by
   copying (a written view, a share that fell back to copying, a
   copy-on-write carry-over); it must not move on the cache disk, on
   the volumes or in the instance's segment images. *)
type zc = {
  hl : Hl.t;
  st : State.t;
  disk : Device.Blockstore.t;
  jb : Device.Jukebox.t;
  data : Bytes.t;
}

let zc_seg = 256

let zc_world engine =
  let prm = Param.for_tests ~seg_blocks:zc_seg ~nsegs:12 () in
  let disk =
    Device.Blockstore.create ~block_size:prm.Param.block_size ~nblocks:(Layout.disk_blocks prm)
  in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:2 ~vol_capacity:(8 * zc_seg)
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp = Footprint.create ~seg_blocks:zc_seg ~segs_per_volume:8 [ jb ] in
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_store disk) ~fp ~cache_segs:4 () in
  let data = bytes_pattern (200 * bs) 9 in
  Hl.write_file hl "/a" data;
  Fs.checkpoint (Hl.fs hl);
  { hl; st = Hl.state hl; disk; jb; data }

(* every image the instance has: pooled, on a line, on [image_fifo] *)
let images w =
  let pool = w.st.State.images in
  let all = ref pool.State.free_images in
  let note l =
    match l.Seg_cache.image with Some i when not (List.memq i !all) -> all := i :: !all | _ -> ()
  in
  Seg_cache.iter (Hl.cache w.hl) note;
  Queue.iter note w.st.State.image_fifo;
  !all

let copied w =
  let sum = List.fold_left (fun acc s -> acc + Device.Blockstore.blocks_copied s) 0 in
  [
    ("disk", Device.Blockstore.blocks_copied w.disk);
    ( "volumes",
      sum (List.init (Device.Jukebox.nvolumes w.jb) (Device.Jukebox.volume_store w.jb)) );
    ("images", sum (images w));
  ]

let check_no_copy what before after =
  List.iter2
    (fun (medium, b) (_, a) ->
      check Alcotest.int (Printf.sprintf "%s: blocks copied into the %s" what medium) 0 (a - b))
    before after

let migrate w =
  let fsys = Hl.fs w.hl in
  ignore (Migrator.stage_files_only w.st [ (Dir.namei fsys "/a").Inode.inum ]);
  let before = copied w in
  ignore (Migrator.flush_staged w.st ());
  check_no_copy "write-out" before (copied w);
  check Alcotest.bool "the write-out happened" true
    (Sim.Metrics.count (Sim.Metrics.counter (Hl.metrics w.hl) "service.writeouts") >= 1);
  Fs.checkpoint fsys;
  Hl.eject_tertiary_copies w.hl ~paths:[ "/a" ]

let test_writeout_copies_nothing () =
  in_sim (fun engine ->
      let w = zc_world engine in
      migrate w;
      check Alcotest.bool "reads back from tertiary" true
        (Bytes.equal (Hl.read_file w.hl "/a" ()) w.data);
      check (Alcotest.list Alcotest.string) "Hl.check" [] (Hl.check w.hl);
      Hl.shutdown_service w.hl)

let test_fetch_copies_nothing () =
  in_sim (fun engine ->
      let w = zc_world engine in
      migrate w;
      let before = copied w and taken = Device.Blockstore.pages_taken w.disk in
      check Alcotest.bool "the fetch serves the file" true
        (Bytes.equal (Hl.read_file w.hl "/a" ()) w.data);
      (* the read returns at its first chunk; let the landing finish *)
      Sim.Engine.delay 60.0;
      check Alcotest.bool "fetched from tertiary" true ((Hl.stats w.hl).Hl.demand_fetches >= 1);
      check_no_copy "fetch and landing" before (copied w);
      check Alcotest.int "the landing took no disk page" taken
        (Device.Blockstore.pages_taken w.disk);
      check (Alcotest.list Alcotest.string) "Hl.check" [] (Hl.check w.hl);
      Hl.shutdown_service w.hl)

(* Once the pool holds an image, a streaming fetch and its landing
   allocate no segment-sized anything: no buffer, no image, no page.
   A 1 MB buffer alone is 131,073 words. *)
let test_fetch_allocates_no_segment () =
  in_sim (fun engine ->
      let w = zc_world engine in
      migrate w;
      let fetch () =
        ignore (Hl.read_file w.hl "/a" ~off:0 ~len:bs ());
        Sim.Engine.delay 60.0;
        Hl.eject_tertiary_copies w.hl ~paths:[ "/a" ]
      in
      fetch ();
      let pool = w.st.State.images in
      let made () = List.length pool.State.free_images + pool.State.images_out in
      let before = made () in
      (* the allocation counters are exact after a minor collection *)
      let words () =
        Gc.minor ();
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let w0 = words () in
      fetch ();
      let used = words () -. w0 in
      Printf.printf "one fetch + landing: %.0f words\n" used;
      check Alcotest.bool
        (Printf.sprintf "%.0f words for a fetch and its landing < a quarter segment" used)
        true
        (used < float_of_int (zc_seg * bs / 8 / 4));
      check Alcotest.int "no image made" before (made ());
      Hl.shutdown_service w.hl)

let suite =
  [
    ( "media.oracle",
      [ Alcotest.test_case "every medium matches the recorded bytes" `Quick test_media_oracle ] );
    ( "media.zero_copy",
      [
        Alcotest.test_case "a write-out copies no block" `Quick test_writeout_copies_nothing;
        Alcotest.test_case "a fetch and landing copy no block" `Quick test_fetch_copies_nothing;
        Alcotest.test_case "a fetch allocates no segment" `Quick test_fetch_allocates_no_segment;
      ] );
  ]
