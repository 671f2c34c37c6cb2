(* Checksum once: a log block's CRC-32 is computed when its bytes first
   go into a partial segment and then carried — on the buffer-cache
   entry and, by disk address, in the file system's record of what the
   segment writer wrote — so the cleaner and the migrator fold known
   sums into a new partial's data checksum instead of hashing the moved
   bytes again. These tests pin the validity rules of the carried sum,
   that a block damaged on the disk is not given a fresh, valid sum by
   a move, and that a remount (which starts with no recorded sums) still
   writes partials fsck accepts. *)

open Highlight
open Lfs

let check = Alcotest.check
let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let fresh_fs () =
  let prm = Param.for_tests () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size ~nblocks:(Layout.disk_blocks prm)
  in
  (Fs.mkfs (Sim.Engine.create ()) prm (Dev.of_store store) (), store)

let bs = 4096

(* A carried sum is either unknown (-1) or the CRC-32 of the cached
   bytes; a stale one is what the clearing paths exist to prevent. *)
let carried fs ino bkey =
  let cache = Fs.bcache fs in
  let key = Bcache.key ino.Inode.inum bkey in
  let data = Bcache.find cache key in
  if data == Bcache.miss then Alcotest.failf "block of ino %d not cached" ino.Inode.inum
  else (Bcache.crc cache key data, Util.Crc32.bytes data)

let check_sound what fs ino bkey =
  let crc, actual = carried fs ino bkey in
  if crc <> -1 && crc <> actual then
    Alcotest.failf "%s: entry carries %08x for bytes summing to %08x" what crc actual

let check_known what fs ino bkey =
  let crc, actual = carried fs ino bkey in
  check Alcotest.int what actual crc

(* The rules on the cache entry itself: new or modified bytes forget the
   sum, moves and re-homing keep it. *)
let test_bcache_rules () =
  let cache = Bcache.create ~cap:8 ~block_size:bs in
  let filled c =
    let b = Bcache.take cache in
    Bytes.fill (Util.Bufpool.bytes b) 0 bs c;
    b
  in
  let k = Bcache.key 7 (Bkey.Data 0) and b = filled 'a' in
  let d = Util.Bufpool.bytes b in
  Bcache.put_clean_buf cache k ~addr:100 ~crc:1234 b;
  check Alcotest.int "read with a sum" 1234 (Bcache.crc cache k d);
  check Alcotest.int "other bytes carry nothing" (-1) (Bcache.crc cache k (Bytes.copy d));
  Bcache.mark_dirty cache k;
  check Alcotest.int "mark_dirty keeps" 1234 (Bcache.crc cache k d);
  Bcache.mark_flushed cache k ~addr:200;
  check Alcotest.int "mark_flushed keeps" 1234 (Bcache.crc cache k d);
  Bcache.set_addr cache k 300;
  check Alcotest.int "set_addr keeps" 1234 (Bcache.crc cache k d);
  Bcache.mark_modified cache k;
  check Alcotest.int "mark_modified forgets" (-1) (Bcache.crc cache k d);
  Bcache.put_dirty_buf cache k ~old_addr:(-1) ~crc:55 b;
  check Alcotest.int "put_dirty with the written sum" 55 (Bcache.crc cache k d);
  Bcache.put_dirty_buf cache k ~old_addr:(-1) ~crc:(-1) b;
  check Alcotest.int "put_dirty forgets" (-1) (Bcache.crc cache k d);
  let k2 = Bcache.key 8 (Bkey.Data 0) and b2 = filled 'a' in
  Bcache.put_clean_buf cache k2 ~addr:400 ~crc:(-1) b2;
  check Alcotest.int "read without a sum" (-1) (Bcache.crc cache k2 (Util.Bufpool.bytes b2))

(* The segment writer's handles: one answers while its entry is in the
   cache holding the staged bytes, and [mark_written] cleans only an
   entry whose bytes are the ones written. Four dirty entries are
   staged; during the "write" one gets new bytes, one is modified in
   place, one is dropped, one is left alone. *)
let test_handle_liveness () =
  let cache = Bcache.create ~cap:8 ~block_size:bs in
  let filled c =
    let b = Bcache.take cache in
    Bytes.fill (Util.Bufpool.bytes b) 0 bs c;
    b
  in
  let key lbn = Bcache.key 7 (Bkey.Data lbn) in
  List.iter
    (fun lbn -> Bcache.put_dirty_buf cache (key lbn) ~old_addr:(-1) ~crc:(-1) (filled 'a'))
    [ 0; 1; 2; 3 ];
  let staged = ref [] in
  Bcache.iter_dirty_sorted cache ~level:0 (fun h _ data _ -> staged := (h, data) :: !staged);
  let staged = List.rev !staged in
  check Alcotest.int "all four staged" 4 (List.length staged);
  List.iteri (fun i (h, data) -> Bcache.set_handle_crc h data (100 + i)) staged;
  List.iteri
    (fun i (h, data) ->
      check Alcotest.int "sum through the handle" (100 + i) (Bcache.handle_crc h data))
    staged;
  Bcache.put_dirty_buf cache (key 1) ~old_addr:(-1) ~crc:(-1) (filled 'b');
  Bcache.mark_modified cache (key 2);
  Bcache.drop cache (key 3);
  List.iteri
    (fun i (h, data) -> Bcache.mark_written cache h data ~crc:(100 + i) ~addr:(50 + i))
    staged;
  let answers lbn =
    let h, data = List.nth staged lbn in
    Bcache.handle_crc h data
  in
  check Alcotest.int "untouched: answers" 100 (answers 0);
  check Alcotest.bool "untouched: clean" false (Bcache.is_dirty cache (key 0));
  check Alcotest.int "untouched: at its new address" 50 (Bcache.addr_of cache (key 0));
  check Alcotest.int "new bytes: stale" (-1) (answers 1);
  check Alcotest.bool "new bytes: still dirty" true (Bcache.is_dirty cache (key 1));
  check Alcotest.int "new bytes: remembers the written address" 51 (Bcache.addr_of cache (key 1));
  check Alcotest.int "modified in place: forgot its sum" (-1) (answers 2);
  check Alcotest.bool "modified in place: still dirty" true (Bcache.is_dirty cache (key 2));
  check Alcotest.int "dropped: stale" (-1) (answers 3);
  check Alcotest.bool "dropped: not re-added" false (Bcache.is_dirty cache (key 3));
  check Alcotest.int "no handle answers nothing" (-1)
    (Bcache.handle_crc Bcache.no_handle Bytes.empty)

(* Twenty blocks: twelve direct, eight under the single indirect block. *)
let twenty_block_file fs =
  let ino = Dir.create_file fs "/f" in
  File.write fs ino ~off:0 (bytes_pattern (20 * bs) 3);
  Fs.flush fs;
  ino

let test_flush_records_sums () =
  let fs, _ = fresh_fs () in
  let ino = twenty_block_file fs in
  check_known "data block carries its flushed sum" fs ino (Bkey.Data 0);
  check_known "indirect block carries its flushed sum" fs ino (Bkey.L1 0);
  (* the cleaner moves the cached block; its new partial checks *)
  let seg = Option.get (Layout.seg_of_addr (Fs.param fs) (Fs.lookup_addr fs ino (Bkey.Data 0))) in
  Fs.checkpoint fs;
  ignore (Cleaner.clean_segments fs [ seg ]);
  check Alcotest.bool "block moved" true
    (Layout.seg_of_addr (Fs.param fs) (Fs.lookup_addr fs ino (Bkey.Data 0)) <> Some seg);
  check_known "moved block still carries its sum" fs ino (Bkey.Data 0);
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

let test_put_block_forgets () =
  let fs, _ = fresh_fs () in
  let ino = twenty_block_file fs in
  Fs.put_block fs ino (Bkey.Data 1) (bytes_pattern bs 99);
  check_sound "put_block" fs ino (Bkey.Data 1);
  Fs.flush fs;
  check_known "reflushed" fs ino (Bkey.Data 1)

let test_get_block_for_write_forgets () =
  let fs, _ = fresh_fs () in
  let ino = twenty_block_file fs in
  let block = Fs.get_block_for_write fs ino (Bkey.Data 2) in
  Bytes.fill block 0 16 'x';
  check_sound "get_block_for_write on a clean entry" fs ino (Bkey.Data 2);
  (* and on an entry that is already dirty but still carries a sum: the
     cleaner's move leaves exactly that state *)
  Fs.flush fs;
  Bcache.mark_dirty (Fs.bcache fs) (Bcache.key ino.Inode.inum (Bkey.Data 3));
  let block = Fs.get_block_for_write fs ino (Bkey.Data 3) in
  Bytes.fill block 0 16 'y';
  check_sound "get_block_for_write on a moved entry" fs ino (Bkey.Data 3);
  Fs.flush fs;
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

let test_set_pointer_forgets () =
  let fs, _ = fresh_fs () in
  let ino = twenty_block_file fs in
  check_known "indirect block flushed" fs ino (Bkey.L1 0);
  (* cutting the file to 13 blocks clears seven pointers in the
     indirect block *)
  File.truncate fs ino (13 * bs);
  check_sound "set_pointer in an indirect block" fs ino (Bkey.L1 0);
  Fs.flush fs;
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

let test_truncate_tail_forgets () =
  let fs, _ = fresh_fs () in
  let ino = twenty_block_file fs in
  File.truncate fs ino ((4 * bs) + 100);
  check_sound "truncate's tail zeroing" fs ino (Bkey.Data 4);
  Fs.flush fs;
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

(* Flip one byte of a live block directly on the medium, then clean its
   segment. The cleaner reads the damaged bytes; because the block keeps
   the sum it was written with, the partial it lands in fails its data
   checksum and fsck names it. Summing the bytes as read would give the
   damage a valid checksum. *)
let test_cleaner_does_not_launder () =
  let fs, store = fresh_fs () in
  let prm = Fs.param fs in
  let ino = twenty_block_file fs in
  ignore (Dir.create_file fs "/other");
  Fs.checkpoint fs;
  (* nothing cached: the cleaner must read the block from the disk *)
  Bcache.invalidate_clean (Fs.bcache fs);
  let victim = Fs.lookup_addr fs ino (Bkey.Data 5) in
  let block = (Lfs.Dev.of_store store).Lfs.Dev.read ~blk:victim ~count:1 in
  Bytes.set block 17 (Char.chr (Char.code (Bytes.get block 17) lxor 0x40));
  Device.Blockstore.write store ~blk:victim block;
  let seg = Option.get (Layout.seg_of_addr prm victim) in
  ignore (Cleaner.clean_segments fs [ seg ]);
  let moved = Fs.lookup_addr fs ino (Bkey.Data 5) in
  let new_seg = Option.get (Layout.seg_of_addr prm moved) in
  check Alcotest.bool "block moved out of the victim" true (new_seg <> seg);
  let rel = moved - Layout.seg_base prm new_seg in
  let partial =
    Cleaner.fold_partials fs (Cleaner.log_segment fs new_seg)
      (fun found ~off ~sum ~data_crc:_ ->
        if off < rel && rel <= off + Summary.nblocks_total sum then Some off else found)
      None
  in
  let off = Option.get partial in
  let prefix = Printf.sprintf "segment %d partial at offset %d:" new_seg off in
  let problems = Debug.fsck fs in
  check Alcotest.bool
    (Printf.sprintf "fsck names the cleaner's partial (%s)" (String.concat "; " problems))
    true
    (List.exists (String.starts_with ~prefix) problems)

let in_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "sim process did not finish"

(* After a crash and remount nothing is known about the blocks already
   on the disk: cleaning and migrating hash what they move, and every
   partial they write still checks. *)
let test_remount_cleans_and_migrates () =
  in_sim (fun engine ->
      let prm = Param.for_tests ~seg_blocks:16 ~nsegs:64 () in
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
      let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs:12 () in
      let files =
        List.init 6 (fun i -> (Printf.sprintf "/f%d" i, bytes_pattern ((5 + i) * bs) i))
      in
      List.iter (fun (path, data) -> Hl.write_file hl path data) files;
      Fs.checkpoint (Hl.fs hl);
      (* churn after the checkpoint, so roll-forward has work too *)
      Hl.write_file hl "/f0" (bytes_pattern (7 * bs) 40);
      Dir.unlink (Hl.fs hl) "/f1";
      Fs.flush (Hl.fs hl);
      let files =
        ("/f0", bytes_pattern (7 * bs) 40)
        :: List.filter (fun (p, _) -> p <> "/f0" && p <> "/f1") files
      in
      let img = Fs.crash_image (Hl.fs hl) store in
      Hl.shutdown_service hl;
      let hl2 = Hl.mount engine ~disk:(Dev.of_store img) ~fp ~cpu:Param.cpu_free () in
      let fs2 = Hl.fs hl2 in
      check Alcotest.(list string) "fsck after remount" [] (Debug.fsck fs2);
      let victims = Cleaner.select_victims fs2 ~policy:Cleaner.Greedy ~limit:100 in
      let r = Cleaner.clean_segments fs2 victims in
      check Alcotest.bool "the cleaner moved blocks" true (r.Cleaner.blocks_moved > 0);
      check Alcotest.(list string) "fsck after cleaning" [] (Debug.fsck fs2);
      ignore (Migrator.migrate_paths (Hl.state hl2) [ "/f2"; "/f3" ]);
      check Alcotest.(list string) "fsck after migrating" [] (Debug.fsck fs2);
      List.iter
        (fun (path, data) -> check Alcotest.bytes path data (Hl.read_file hl2 path ()))
        files;
      check Alcotest.(list string) "invariants" [] (Hl.check hl2);
      Hl.shutdown_service hl2)

let suite =
  [
    ( "lfs.checksum",
      [
        Alcotest.test_case "cache entry rules" `Quick test_bcache_rules;
        Alcotest.test_case "flush records sums" `Quick test_flush_records_sums;
        Alcotest.test_case "put_block forgets the sum" `Quick test_put_block_forgets;
        Alcotest.test_case "get_block_for_write forgets the sum" `Quick
          test_get_block_for_write_forgets;
        Alcotest.test_case "set_pointer forgets the indirect block's sum" `Quick
          test_set_pointer_forgets;
        Alcotest.test_case "segment-writer handles go stale" `Quick test_handle_liveness;
        Alcotest.test_case "truncate's tail zeroing forgets the sum" `Quick
          test_truncate_tail_forgets;
        Alcotest.test_case "cleaning a damaged block does not launder it" `Quick
          test_cleaner_does_not_launder;
        Alcotest.test_case "remount: cleaning and migrating write good sums" `Quick
          test_remount_cleans_and_migrates;
      ] );
  ]
