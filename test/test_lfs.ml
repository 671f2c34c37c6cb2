open Lfs

let check = Alcotest.check

(* Logic tests run on a zero-latency blockstore device with the free CPU
   model, so no simulation process is needed. *)
let fresh_fs ?(prm = Param.for_tests ()) () =
  let engine = Sim.Engine.create () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size
      ~nblocks:(Layout.disk_blocks prm)
  in
  let fs = Fs.mkfs engine prm (Dev.of_store store) () in
  (fs, store, engine)

let remount ?(engine = Sim.Engine.create ()) store =
  Fs.mount engine ~cpu:Param.cpu_free (Dev.of_store store)

let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

(* --- Bkey --- *)

let test_bkey_parents () =
  let ppb = 1024 in
  check Alcotest.bool "direct" true (Bkey.parent ~ppb (Bkey.Data 0) = Bkey.In_inode_direct 0);
  check Alcotest.bool "last direct" true
    (Bkey.parent ~ppb (Bkey.Data 11) = Bkey.In_inode_direct 11);
  check Alcotest.bool "first indirect" true
    (Bkey.parent ~ppb (Bkey.Data 12) = Bkey.In_block (Bkey.L1 0, 0));
  check Alcotest.bool "last under L1 0" true
    (Bkey.parent ~ppb (Bkey.Data (12 + 1023)) = Bkey.In_block (Bkey.L1 0, 1023));
  check Alcotest.bool "first under L1 1" true
    (Bkey.parent ~ppb (Bkey.Data (12 + 1024)) = Bkey.In_block (Bkey.L1 1, 0));
  check Alcotest.bool "L1 0 under single" true (Bkey.parent ~ppb (Bkey.L1 0) = Bkey.In_inode_single);
  check Alcotest.bool "L1 1 under L2 0" true
    (Bkey.parent ~ppb (Bkey.L1 1) = Bkey.In_block (Bkey.L2 0, 0));
  check Alcotest.bool "L2 0 under double" true
    (Bkey.parent ~ppb (Bkey.L2 0) = Bkey.In_inode_double);
  check Alcotest.bool "L2 1 under L3" true (Bkey.parent ~ppb (Bkey.L2 1) = Bkey.In_block (Bkey.L3, 0));
  check Alcotest.bool "L3 under triple" true (Bkey.parent ~ppb Bkey.L3 = Bkey.In_inode_triple)

let test_bkey_levels () =
  check Alcotest.int "data" 0 (Bkey.level (Bkey.Data 5));
  check Alcotest.int "l1" 1 (Bkey.level (Bkey.L1 0));
  check Alcotest.int "l2" 2 (Bkey.level (Bkey.L2 3));
  check Alcotest.int "l3" 3 (Bkey.level Bkey.L3)

let prop_bkey_roundtrip =
  QCheck.Test.make ~name:"bkey encode/decode roundtrip" ~count:500
    QCheck.(int_range 0 3)
    (fun _class_unused -> true)

let prop_bkey_roundtrip =
  ignore prop_bkey_roundtrip;
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Bkey.Data n) (0 -- 100000);
          map (fun n -> Bkey.L1 n) (0 -- 10000);
          map (fun n -> Bkey.L2 n) (0 -- 10000);
          return Bkey.L3;
        ])
  in
  QCheck.Test.make ~name:"bkey encode/decode roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Bkey.pp) gen)
    (fun bk -> Bkey.decode (Bkey.encode bk) = bk)

(* --- Summary --- *)

let sample_summary () =
  {
    Summary.ss_next = 4096;
    ss_create = 12.5;
    ss_serial = 42L;
    ss_flags = 0;
    finfos =
      [
        {
          Summary.fi_ino = 7;
          fi_version = 3;
          fi_lastlength = 100;
          fi_blocks = [ Bkey.Data 0; Bkey.Data 1; Bkey.L1 0 ];
        };
        { Summary.fi_ino = 9; fi_version = 1; fi_lastlength = 4096; fi_blocks = [ Bkey.Data 5 ] };
      ];
    inode_addrs = [ 777; 778 ];
  }

let test_summary_roundtrip () =
  let s = sample_summary () in
  let block = Summary.serialize ~block_size:4096 ~data_crc:0xabcdef s in
  match Summary.deserialize block with
  | Error _ -> Alcotest.fail "should parse"
  | Ok (s', crc) ->
      check Alcotest.int "data crc" 0xabcdef crc;
      check Alcotest.bool "equal" true (s = s');
      check Alcotest.int "nblocks" 6 (Summary.nblocks_total s')

let test_summary_checksum () =
  let block = Summary.serialize ~block_size:4096 ~data_crc:1 (sample_summary ()) in
  Bytes.set block 100 'X';
  check Alcotest.bool "bitflip detected" true (Summary.deserialize block = Error Summary.Bad_checksum)

let test_summary_garbage () =
  check Alcotest.bool "zeros are garbage" true
    (Summary.deserialize (Bytes.make 4096 '\000') = Error Summary.Garbage);
  check Alcotest.bool "noise is garbage" true
    (match Summary.deserialize (bytes_pattern 4096 3) with Error _ -> true | Ok _ -> false)

let test_summary_capacity () =
  let huge =
    {
      (sample_summary ()) with
      Summary.finfos =
        List.init 300 (fun i ->
            { Summary.fi_ino = i; fi_version = 1; fi_lastlength = 0; fi_blocks = [ Bkey.Data 0 ] });
    }
  in
  check Alcotest.bool "overflow rejected" true
    (try
       ignore (Summary.serialize ~block_size:4096 ~data_crc:0 huge);
       false
     with Invalid_argument _ -> true)

(* --- Inode serialization --- *)

let test_inode_roundtrip () =
  let ino = Inode.create ~inum:17 ~kind:Inode.Dir ~version:5 ~now:33.25 in
  ino.Inode.size <- 123456;
  ino.Inode.nlink <- 3;
  ino.Inode.direct.(0) <- 999;
  ino.Inode.direct.(11) <- -1;
  ino.Inode.single <- 1234;
  let b = Bytes.make 4096 '\000' in
  Inode.write_to b ~off:256 ino;
  match Inode.read_from b ~off:256 with
  | None -> Alcotest.fail "inode lost"
  | Some ino' -> check Alcotest.bool "equal" true (Inode.equal_shape ino ino')

let test_inode_pack_find () =
  let inodes =
    List.init 5 (fun i -> Inode.create ~inum:(10 + i) ~kind:Inode.Reg ~version:1 ~now:0.0)
  in
  let block = Inode.pack_block ~block_size:4096 inodes in
  check Alcotest.bool "finds 12" true (Inode.find_in_block block ~inum:12 <> None);
  check Alcotest.bool "no 99" true (Inode.find_in_block block ~inum:99 = None);
  let seen = ref 0 in
  Inode.iter_block block (fun _ -> incr seen);
  check Alcotest.int "iterates all" 5 !seen

(* --- Imap --- *)

let test_imap_alloc_free () =
  let m = Imap.create ~max_inodes:64 in
  let a = Imap.alloc m in
  let b = Imap.alloc m in
  check Alcotest.bool "distinct" true (a <> b);
  check Alcotest.bool "regular range" true (a >= Imap.first_regular_inum);
  let va = (Imap.get m a).Imap.version in
  Imap.free m a;
  check Alcotest.int "free addr" (-1) (Imap.get m a).Imap.addr;
  check Alcotest.bool "version bumped" true ((Imap.get m a).Imap.version > va);
  let c = Imap.alloc m in
  check Alcotest.int "reuses lowest" a c

let test_imap_serialize () =
  let m = Imap.create ~max_inodes:64 in
  let a = Imap.alloc m in
  Imap.set_addr m a 4242;
  Imap.set_atime m a 55.5;
  let m' = Imap.create ~max_inodes:64 in
  for idx = 0 to Imap.nblocks ~max_inodes:64 ~block_size:4096 - 1 do
    Imap.load_block m' ~block_size:4096 idx (Imap.serialize_block m ~block_size:4096 idx)
  done;
  check Alcotest.int "addr" 4242 (Imap.get m' a).Imap.addr;
  check (Alcotest.float 1e-9) "atime" 55.5 (Imap.get m' a).Imap.atime;
  check Alcotest.int "nfiles" (Imap.nfiles m) (Imap.nfiles m')

(* --- Segusage --- *)

let test_segusage_transitions () =
  let s = Segusage.create ~nsegs:8 ~seg_bytes:65536 in
  check Alcotest.int "all clean" 8 (Segusage.nclean s);
  Segusage.set_state s 3 Segusage.Active;
  Segusage.set_state s 4 Segusage.Dirty;
  check Alcotest.int "two used" 6 (Segusage.nclean s);
  Segusage.add_live s 4 1000;
  check Alcotest.int "live" 1000 (Segusage.get s 4).Segusage.live_bytes;
  Segusage.set_state s 4 Segusage.Clean;
  check Alcotest.int "clean resets live" 0 (Segusage.get s 4).Segusage.live_bytes;
  check Alcotest.int "back to 7" 7 (Segusage.nclean s)

let test_segusage_next_clean () =
  let s = Segusage.create ~nsegs:4 ~seg_bytes:65536 in
  Segusage.set_state s 0 Segusage.Active;
  Segusage.set_state s 1 Segusage.Dirty;
  check Alcotest.(option int) "skips" (Some 2) (Segusage.next_clean s ~after:0);
  check Alcotest.(option int) "wraps" (Some 2) (Segusage.next_clean s ~after:3);
  Segusage.set_state s 2 Segusage.Dirty;
  Segusage.set_state s 3 Segusage.Cached;
  check Alcotest.(option int) "none" None (Segusage.next_clean s ~after:0)

let test_segusage_serialize () =
  let s = Segusage.create ~nsegs:8 ~seg_bytes:65536 in
  Segusage.set_state s 2 Segusage.Cached;
  Segusage.set_cache_tag s 2 99;
  Segusage.add_live s 2 512;
  let s' = Segusage.create ~nsegs:8 ~seg_bytes:65536 in
  Segusage.load_block s' ~block_size:4096 0 (Segusage.serialize_block s ~block_size:4096 0);
  check Alcotest.bool "state" true ((Segusage.get s' 2).Segusage.state = Segusage.Cached);
  check Alcotest.int "tag" 99 (Segusage.get s' 2).Segusage.cache_tag;
  check Alcotest.int "live" 512 (Segusage.get s' 2).Segusage.live_bytes;
  check Alcotest.int "nclean" (Segusage.nclean s) (Segusage.nclean s')

(* --- Dirent --- *)

let test_dirent_ops () =
  let b = Bytes.make 4096 '\000' in
  check Alcotest.bool "add" true (Dirent.add b "hello.txt" 42);
  check Alcotest.bool "add2" true (Dirent.add b "world" 43);
  check Alcotest.(option int) "find" (Some 42) (Dirent.find b "hello.txt");
  check Alcotest.(option int) "missing" None (Dirent.find b "nope");
  check Alcotest.int "count" 2 (Dirent.count b);
  check Alcotest.bool "remove" true (Dirent.remove b "hello.txt");
  check Alcotest.(option int) "gone" None (Dirent.find b "hello.txt");
  check Alcotest.bool "remove missing" false (Dirent.remove b "hello.txt")

let test_dirent_full_block () =
  let b = Bytes.make 4096 '\000' in
  let cap = Dirent.per_block ~block_size:4096 in
  for i = 0 to cap - 1 do
    check Alcotest.bool "fits" true (Dirent.add b (Printf.sprintf "f%d" i) (i + 1))
  done;
  check Alcotest.bool "full" false (Dirent.add b "overflow" 999);
  check Alcotest.int "count" cap (Dirent.count b)

let test_dirent_bad_names () =
  let b = Bytes.make 4096 '\000' in
  let boom name = try ignore (Dirent.add b name 1); false with Invalid_argument _ -> true in
  check Alcotest.bool "empty" true (boom "");
  check Alcotest.bool "slash" true (boom "a/b");
  check Alcotest.bool "too long" true (boom (String.make 100 'x'))

(* --- Fs basics --- *)

let test_fs_write_read_roundtrip () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/a.dat" in
  let data = bytes_pattern 10000 1 in
  File.write fs f ~off:0 data;
  check Alcotest.bytes "immediate read" data (File.read fs f ~off:0 ~len:10000);
  Fs.flush fs;
  check Alcotest.bytes "after flush" data (File.read fs f ~off:0 ~len:10000);
  Bcache.invalidate_clean (Fs.bcache fs);
  check Alcotest.bytes "from disk" data (File.read fs f ~off:0 ~len:10000)

let test_fs_large_file_indirect () =
  (* spills into the single-indirect block: > 12 blocks *)
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/big" in
  let data = bytes_pattern (20 * 4096) 2 in
  File.write fs f ~off:0 data;
  Fs.flush fs;
  Bcache.invalidate_clean (Fs.bcache fs);
  check Alcotest.bytes "indirect blocks intact" data (File.read fs f ~off:0 ~len:(20 * 4096));
  check Alcotest.bool "single indirect assigned" true (f.Inode.single <> -1)

let test_fs_deep_indirect () =
  (* 512-byte blocks make the double-indirect tree reachable *)
  let prm =
    {
      (Param.for_tests ()) with
      Param.block_size = 512;
      seg_blocks = 32;
      nsegs = 64;
      bcache_blocks = 64;
    }
  in
  let fs, _, _ = fresh_fs ~prm () in
  let f = Dir.create_file fs "/deep" in
  (* 200 blocks of 512 B: direct (12) + L1 (128) + into L2 territory *)
  let data = bytes_pattern (200 * 512) 3 in
  File.write fs f ~off:0 data;
  Fs.flush fs;
  check Alcotest.bool "double indirect used" true (f.Inode.double <> -1);
  Bcache.invalidate_clean (Fs.bcache fs);
  check Alcotest.bytes "deep tree intact" data (File.read fs f ~off:0 ~len:(200 * 512));
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

let test_fs_triple_indirect_sparse () =
  (* 512-byte blocks make the triple-indirect range reachable: a sparse
     write beyond direct+L1+L2 exercises the L3 chain with only a
     handful of allocated blocks *)
  let prm =
    {
      (Param.for_tests ()) with
      Param.block_size = 512;
      seg_blocks = 64;
      nsegs = 64;
      bcache_blocks = 256;
    }
  in
  let fs, store, _ = fresh_fs ~prm () in
  let f = Dir.create_file fs "/deep3" in
  let ppb = 512 / 4 in
  let lbn = Bkey.ndirect + ppb + (ppb * ppb) + 5 (* inside the triple range *) in
  let data = bytes_pattern 512 77 in
  File.write fs f ~off:(lbn * 512) data;
  Fs.flush fs;
  check Alcotest.bool "triple indirect allocated" true (f.Inode.triple <> -1);
  Bcache.invalidate_clean (Fs.bcache fs);
  check Alcotest.bytes "block via L3 chain" data (File.read fs f ~off:(lbn * 512) ~len:512);
  check Alcotest.bool "front is a hole" true
    (Util.Bytesx.is_zero (File.read fs f ~off:0 ~len:512));
  (* survives a remount, and fsck approves of the deep chain *)
  Fs.unmount fs;
  let fs2 = remount store in
  let f2 = Dir.namei fs2 "/deep3" in
  check Alcotest.bytes "after remount" data (File.read fs2 f2 ~off:(lbn * 512) ~len:512);
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs2);
  (* truncation releases the whole chain *)
  File.truncate fs2 f2 0;
  Fs.flush fs2;
  check Alcotest.int "triple released" (-1) f2.Inode.triple;
  check Alcotest.(list string) "fsck after truncate" [] (Debug.fsck fs2)

let test_fs_sparse_holes () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/sparse" in
  File.write fs f ~off:(50 * 4096) (bytes_pattern 4096 4);
  Fs.flush fs;
  check Alcotest.int "size" (51 * 4096) f.Inode.size;
  let hole = File.read fs f ~off:0 ~len:4096 in
  check Alcotest.bool "hole reads zero" true (Util.Bytesx.is_zero hole);
  check Alcotest.bytes "data ok" (bytes_pattern 4096 4)
    (File.read fs f ~off:(50 * 4096) ~len:4096)

let test_fs_overwrite () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/over" in
  File.write fs f ~off:0 (bytes_pattern 8192 5);
  Fs.flush fs;
  let live_before = Segusage.live_total (Fs.seguse fs) in
  File.write fs f ~off:0 (bytes_pattern 8192 6);
  Fs.flush fs;
  check Alcotest.bytes "new content" (bytes_pattern 8192 6) (File.read fs f ~off:0 ~len:8192);
  (* overwritten blocks died; only summaries/inodes add weight *)
  let live_after = Segusage.live_total (Fs.seguse fs) in
  check Alcotest.bool
    (Printf.sprintf "no live leak (%d -> %d)" live_before live_after)
    true
    (live_after < live_before + 4096)

let test_fs_partial_writes () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/partial" in
  (* unaligned writes crossing block boundaries *)
  File.write fs f ~off:100 (Bytes.of_string "hello");
  File.write fs f ~off:4090 (Bytes.of_string "spanning-blocks");
  Fs.flush fs;
  Bcache.invalidate_clean (Fs.bcache fs);
  check Alcotest.string "first" "hello" (Bytes.to_string (File.read fs f ~off:100 ~len:5));
  check Alcotest.string "span" "spanning-blocks"
    (Bytes.to_string (File.read fs f ~off:4090 ~len:15))

let test_fs_truncate () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/t" in
  File.write fs f ~off:0 (bytes_pattern (5 * 4096) 7);
  Fs.flush fs;
  File.truncate fs f (2 * 4096);
  check Alcotest.int "size" (2 * 4096) f.Inode.size;
  Fs.flush fs;
  check Alcotest.int "short read" 0 (Bytes.length (File.read fs f ~off:(2 * 4096) ~len:4096));
  File.truncate fs f 100;
  Fs.flush fs;
  check Alcotest.int "shrunk more" 100 f.Inode.size;
  check Alcotest.bytes "head preserved" (Bytes.sub (bytes_pattern (5 * 4096) 7) 0 100)
    (File.read fs f ~off:0 ~len:100);
  File.truncate fs f 0;
  File.truncate fs f 4096 (* re-extend: must be a hole *);
  check Alcotest.bool "hole after regrow" true
    (Util.Bytesx.is_zero (File.read fs f ~off:0 ~len:4096))

let test_fs_unlink_frees_space () =
  let fs, _, _ = fresh_fs () in
  let baseline = Segusage.live_total (Fs.seguse fs) in
  let f = Dir.create_file fs "/doomed" in
  File.write fs f ~off:0 (bytes_pattern (30 * 4096) 8);
  Fs.flush fs;
  Dir.unlink fs "/doomed";
  Fs.flush fs;
  let after = Segusage.live_total (Fs.seguse fs) in
  (* all 30 data blocks + indirect died; bounded metadata churn remains *)
  check Alcotest.bool
    (Printf.sprintf "space released (%d -> %d)" baseline after)
    true
    (after < baseline + (6 * 4096));
  check Alcotest.bool "name gone" true (Dir.namei_opt fs "/doomed" = None)

let test_fs_no_space () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/filler" in
  let chunk = bytes_pattern (16 * 4096) 9 in
  check Alcotest.bool "eventually ENOSPC" true
    (try
       for i = 0 to 1000 do
         File.write fs f ~off:(i * 16 * 4096) chunk
       done;
       false
     with Fs.No_space -> true)

let test_fs_check_after_churn () =
  let fs, _, _ = fresh_fs () in
  for i = 0 to 10 do
    let f = Dir.create_file fs (Printf.sprintf "/churn%d" i) in
    File.write fs f ~off:0 (bytes_pattern (((i * 37) mod 9000) + 1) i)
  done;
  Fs.flush fs;
  for i = 0 to 10 do
    if i mod 2 = 0 then Dir.unlink fs (Printf.sprintf "/churn%d" i)
  done;
  Fs.checkpoint fs;
  check Alcotest.(list string) "invariants hold" [] (Fs.check fs);
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

(* --- Dir --- *)

let test_dir_tree_ops () =
  let fs, _, _ = fresh_fs () in
  ignore (Dir.mkdir fs "/usr");
  ignore (Dir.mkdir fs "/usr/local");
  ignore (Dir.create_file fs "/usr/local/file.txt");
  let ino = Dir.namei fs "/usr/local/file.txt" in
  check Alcotest.bool "resolves" true (ino.Inode.kind = Inode.Reg);
  let entries = List.map fst (Dir.readdir fs (Dir.namei fs "/usr")) in
  check Alcotest.bool "local listed" true (List.mem "local" entries);
  check Alcotest.bool "dot listed" true (List.mem "." entries);
  (* .. resolution *)
  let up = Dir.namei fs "/usr/local/.." in
  check Alcotest.int "parent via .." (Dir.namei fs "/usr").Inode.inum up.Inode.inum

let test_dir_errors () =
  let fs, _, _ = fresh_fs () in
  ignore (Dir.create_file fs "/x");
  check Alcotest.bool "duplicate create" true
    (try ignore (Dir.create_file fs "/x"); false with Dir.Exists _ -> true);
  check Alcotest.bool "missing parent" true
    (try ignore (Dir.create_file fs "/no/such/file"); false with Not_found -> true);
  ignore (Dir.mkdir fs "/d");
  ignore (Dir.create_file fs "/d/inside");
  check Alcotest.bool "rmdir non-empty" true
    (try Dir.rmdir fs "/d"; false with Dir.Not_empty _ -> true);
  check Alcotest.bool "unlink a dir" true
    (try Dir.unlink fs "/d"; false with Dir.Not_dir _ -> true);
  Dir.unlink fs "/d/inside";
  Dir.rmdir fs "/d";
  check Alcotest.bool "gone" true (Dir.namei_opt fs "/d" = None)

let test_dir_link_and_nlink () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/orig" in
  File.write fs f ~off:0 (Bytes.of_string "shared");
  Dir.link fs ~existing:"/orig" ~path:"/alias";
  check Alcotest.int "nlink 2" 2 f.Inode.nlink;
  check Alcotest.int "same inode" f.Inode.inum (Dir.namei fs "/alias").Inode.inum;
  Dir.unlink fs "/orig";
  check Alcotest.string "alias still reads" "shared"
    (Bytes.to_string (File.read fs (Dir.namei fs "/alias") ~off:0 ~len:6));
  Dir.unlink fs "/alias";
  check Alcotest.bool "inode freed" true
    (try ignore (Fs.get_inode fs f.Inode.inum); false with Not_found -> true)

let test_dir_rename () =
  let fs, _, _ = fresh_fs () in
  ignore (Dir.mkdir fs "/a");
  ignore (Dir.mkdir fs "/b");
  let f = Dir.create_file fs "/a/file" in
  File.write fs f ~off:0 (Bytes.of_string "payload");
  Dir.rename fs ~src:"/a/file" ~dst:"/b/renamed";
  check Alcotest.bool "old gone" true (Dir.namei_opt fs "/a/file" = None);
  check Alcotest.string "content follows" "payload"
    (Bytes.to_string (File.read fs (Dir.namei fs "/b/renamed") ~off:0 ~len:7));
  (* directory rename updates .. and link counts *)
  ignore (Dir.mkdir fs "/a/sub");
  Dir.rename fs ~src:"/a/sub" ~dst:"/b/sub";
  check Alcotest.int "dotdot fixed" (Dir.namei fs "/b").Inode.inum
    (Dir.namei fs "/b/sub/..").Inode.inum;
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

let test_dir_symlink () =
  let fs, _, _ = fresh_fs () in
  ignore (Dir.create_file fs "/target");
  Dir.symlink fs ~target:"/target" ~path:"/lnk";
  check Alcotest.string "readlink" "/target" (Dir.readlink fs "/lnk")

let test_dir_many_entries () =
  (* spill directory over multiple blocks: 64 entries per 4 KB block *)
  let fs, _, _ = fresh_fs () in
  ignore (Dir.mkdir fs "/big");
  for i = 0 to 149 do
    ignore (Dir.create_file fs (Printf.sprintf "/big/f%03d" i))
  done;
  let d = Dir.namei fs "/big" in
  check Alcotest.bool "multi-block" true (d.Inode.size > 4096);
  check Alcotest.bool "lookup deep entry" true (Dir.namei_opt fs "/big/f149" <> None);
  let names = List.filter (fun (n, _) -> n <> "." && n <> "..") (Dir.readdir fs d) in
  check Alcotest.int "all listed" 150 (List.length names);
  for i = 0 to 149 do
    Dir.unlink fs (Printf.sprintf "/big/f%03d" i)
  done;
  Dir.rmdir fs "/big";
  Fs.checkpoint fs;
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

(* --- persistence & recovery --- *)

let test_mount_roundtrip () =
  let fs, store, _ = fresh_fs () in
  ignore (Dir.mkdir fs "/docs");
  let f = Dir.create_file fs "/docs/report" in
  let data = bytes_pattern 30000 11 in
  File.write fs f ~off:0 data;
  Fs.unmount fs;
  let fs2 = remount store in
  let f2 = Dir.namei fs2 "/docs/report" in
  check Alcotest.int "size survives" 30000 f2.Inode.size;
  check Alcotest.bytes "content survives" data (File.read fs2 f2 ~off:0 ~len:30000);
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs2)

let test_roll_forward_recovers_new_file () =
  let fs, store, _ = fresh_fs () in
  ignore (Dir.create_file fs "/old");
  Fs.checkpoint fs;
  (* post-checkpoint activity, flushed but not checkpointed *)
  let f = Dir.create_file fs "/fresh" in
  let data = bytes_pattern 9000 12 in
  File.write fs f ~off:0 data;
  Fs.flush fs;
  (* crash: no unmount, just mount the store again *)
  let fs2 = remount store in
  let f2 = Dir.namei fs2 "/fresh" in
  check Alcotest.bytes "rolled forward" data (File.read fs2 f2 ~off:0 ~len:9000);
  check Alcotest.bool "old file too" true (Dir.namei_opt fs2 "/old" <> None)

let test_roll_forward_replays_delete () =
  let fs, store, _ = fresh_fs () in
  let f = Dir.create_file fs "/victim" in
  File.write fs f ~off:0 (bytes_pattern 5000 13);
  Fs.checkpoint fs;
  Dir.unlink fs "/victim";
  Fs.flush fs;
  let fs2 = remount store in
  check Alcotest.bool "delete replayed" true (Dir.namei_opt fs2 "/victim" = None);
  check Alcotest.bool "inum freed" true
    (try ignore (Fs.get_inode fs2 f.Inode.inum); false with Not_found -> true)

let test_crash_before_flush_loses_only_recent () =
  let fs, store, _ = fresh_fs () in
  let f = Dir.create_file fs "/durable" in
  File.write fs f ~off:0 (bytes_pattern 4096 14);
  Fs.checkpoint fs;
  let g = Dir.create_file fs "/volatile" in
  File.write fs g ~off:0 (bytes_pattern 4096 15);
  (* crash with dirty state never flushed *)
  let fs2 = remount store in
  check Alcotest.bool "durable file intact" true (Dir.namei_opt fs2 "/durable" <> None);
  check Alcotest.bool "volatile file lost" true (Dir.namei_opt fs2 "/volatile" = None);
  check Alcotest.(list string) "fs consistent" [] (Fs.check fs2)

let test_recovery_ignores_corrupt_tail () =
  let fs, store, _ = fresh_fs () in
  ignore (Dir.create_file fs "/keep");
  Fs.checkpoint fs;
  let f = Dir.create_file fs "/tail" in
  File.write fs f ~off:0 (bytes_pattern 4096 16);
  Fs.flush fs;
  (* corrupt the last partial's summary: flip a byte in the active segment *)
  let prm = Fs.param fs in
  let seg = Fs.cur_seg fs in
  let base = Layout.seg_base prm seg in
  (* find the last summary block: scan for it *)
  let dev = Dev.of_store store in
  let rec find_last off last =
    if off >= prm.Param.seg_blocks - 1 then last
    else
      match Summary.deserialize (dev.Dev.read ~blk:(base + off) ~count:1) with
      | Error _ -> last
      | Ok (sum, _) -> find_last (off + 1 + Summary.nblocks_total sum) (Some off)
  in
  (match find_last 0 None with
  | None -> ()
  | Some off ->
      let block = dev.Dev.read ~blk:(base + off) ~count:1 in
      Bytes.set block 50 (Char.chr (Char.code (Bytes.get block 50) lxor 0xff));
      dev.Dev.write ~blk:(base + off) ~data:block);
  let fs2 = remount store in
  check Alcotest.bool "checkpointed file survives" true (Dir.namei_opt fs2 "/keep" <> None);
  check Alcotest.(list string) "fs consistent" [] (Fs.check fs2)

let test_double_crash_alternating_checkpoints () =
  let fs, store, _ = fresh_fs () in
  ignore (Dir.create_file fs "/one");
  Fs.checkpoint fs;
  ignore (Dir.create_file fs "/two");
  Fs.checkpoint fs;
  (* clobber the newest checkpoint slot: mount must fall back to the other *)
  let dev = Dev.of_store store in
  let newest = Layout.checkpoint_addr 1 in
  let cp1 = Superblock.deserialize_checkpoint (dev.Dev.read ~blk:(Layout.checkpoint_addr 1) ~count:1) in
  let cp0 = Superblock.deserialize_checkpoint (dev.Dev.read ~blk:(Layout.checkpoint_addr 0) ~count:1) in
  let victim =
    match (cp0, cp1) with
    | Some a, Some b ->
        if Int64.compare a.Superblock.serial b.Superblock.serial > 0 then
          Layout.checkpoint_addr 0
        else newest
    | _ -> newest
  in
  dev.Dev.write ~blk:victim ~data:(Bytes.make 4096 '\000');
  let fs2 = remount store in
  (* roll-forward from the older checkpoint still finds /two *)
  check Alcotest.bool "one" true (Dir.namei_opt fs2 "/one" <> None);
  check Alcotest.bool "two (rolled forward)" true (Dir.namei_opt fs2 "/two" <> None)

(* --- cleaner --- *)

let test_cleaner_reclaims () =
  let fs, _, _ = fresh_fs () in
  (* write files, delete most, then clean *)
  let files =
    List.init 8 (fun i ->
        let f = Dir.create_file fs (Printf.sprintf "/f%d" i) in
        File.write fs f ~off:0 (bytes_pattern (8 * 4096) i);
        f)
  in
  ignore files;
  Fs.flush fs;
  for i = 0 to 6 do
    Dir.unlink fs (Printf.sprintf "/f%d" i)
  done;
  Fs.flush fs;
  let before = Fs.nclean fs in
  let r = Cleaner.clean_once fs ~policy:Cleaner.Greedy ~max_segments:6 () in
  check Alcotest.bool "cleaned some" true (r.Cleaner.segments_cleaned > 0);
  check Alcotest.bool "clean grew" true (Fs.nclean fs > before);
  (* survivor intact *)
  check Alcotest.bytes "survivor data" (bytes_pattern (8 * 4096) 7)
    (File.read fs (Dir.namei fs "/f7") ~off:0 ~len:(8 * 4096));
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

let test_cleaner_copies_live_data () =
  let fs, store, _ = fresh_fs () in
  let f = Dir.create_file fs "/live" in
  let data = bytes_pattern (10 * 4096) 21 in
  File.write fs f ~off:0 data;
  Fs.checkpoint fs;
  (* force-clean every dirty segment except the active ones *)
  let victims = Cleaner.select_victims fs ~policy:Cleaner.Greedy ~limit:100 in
  check Alcotest.bool "victims exist" true (victims <> []);
  let r = Cleaner.clean_segments fs victims in
  check Alcotest.bool "blocks moved" true (r.Cleaner.blocks_moved > 0);
  Bcache.invalidate_clean (Fs.bcache fs);
  check Alcotest.bytes "data moved intact" data (File.read fs f ~off:0 ~len:(10 * 4096));
  (* and it survives a remount *)
  Fs.unmount fs;
  let fs2 = remount store in
  check Alcotest.bytes "after remount" data
    (File.read fs2 (Dir.namei fs2 "/live") ~off:0 ~len:(10 * 4096))

let test_cleaner_until_target () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/churn" in
  (* churn overwrites so segments fill with dead blocks *)
  (try
     for round = 0 to 40 do
       File.write fs f ~off:0 (bytes_pattern (12 * 4096) round)
     done
   with Fs.No_space -> ());
  ignore (Cleaner.clean_until fs ~policy:Cleaner.Cost_benefit ~target_clean:20 ());
  check Alcotest.bool
    (Printf.sprintf "reached target (clean=%d)" (Fs.nclean fs))
    true (Fs.nclean fs >= 20);
  check Alcotest.bytes "latest content preserved" (bytes_pattern (12 * 4096) 40)
    (File.read fs (Dir.namei fs "/churn") ~off:0 ~len:(12 * 4096))

(* Regression: FINFO group order must match block layout order, or the
   cleaner mis-attributes blocks in partials holding several files and
   discards live data (found by the trace probe). Large segments force
   many files into one partial. *)
let test_cleaner_multi_file_partial () =
  let prm = Param.for_tests ~seg_blocks:256 ~nsegs:12 () in
  let fs, _, _ = fresh_fs ~prm () in
  (* many small files written in one flush: one partial, many FINFOs *)
  let files =
    List.init 30 (fun i ->
        let f = Dir.create_file fs (Printf.sprintf "/mf%02d" i) in
        File.write fs f ~off:0 (bytes_pattern ((1 + (i mod 4)) * 4096) i);
        f)
  in
  ignore files;
  Fs.checkpoint fs;
  (* clean every dirty segment; all data must survive the move *)
  let victims = Cleaner.select_victims fs ~policy:Cleaner.Greedy ~limit:100 in
  ignore (Cleaner.clean_segments fs victims);
  Bcache.invalidate_clean (Fs.bcache fs);
  List.iteri
    (fun i _ ->
      let f = Dir.namei fs (Printf.sprintf "/mf%02d" i) in
      check Alcotest.bytes
        (Printf.sprintf "file %d intact after clean" i)
        (bytes_pattern ((1 + (i mod 4)) * 4096) i)
        (File.read fs f ~off:0 ~len:((1 + (i mod 4)) * 4096)))
    files;
  check Alcotest.(list string) "fsck clean" [] (Debug.fsck fs)

let test_cleaner_enables_more_writes () =
  let fs, _, _ = fresh_fs () in
  let f = Dir.create_file fs "/recycle" in
  let rounds = ref 0 in
  (try
     for round = 0 to 200 do
       File.write fs f ~off:0 (bytes_pattern (12 * 4096) round);
       incr rounds
     done
   with Fs.No_space -> ());
  let before = !rounds in
  ignore (Cleaner.clean_until fs ~target_clean:25 ());
  (try
     for round = before to before + 10 do
       File.write fs f ~off:0 (bytes_pattern (12 * 4096) round);
       incr rounds
     done
   with Fs.No_space -> ());
  check Alcotest.bool "writes resumed after cleaning" true (!rounds > before)

(* --- randomized model check --- *)

let prop_fs_vs_model =
  QCheck.Test.make ~name:"random ops match an in-memory model" ~count:25
    QCheck.(pair small_nat (list (pair small_nat small_nat)))
    (fun ((_seed : int), ops) ->
      let fs, store, _ = fresh_fs () in
      let fs = ref fs in
      let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 16 in

      let paths = Array.init 6 (fun i -> Printf.sprintf "/m%d" i) in
      let apply (op, arg) =
        let path = paths.(arg mod Array.length paths) in
        match op mod 6 with
        | 0 ->
            (* write *)
            let len = 1 + (arg * 131 mod 6000) in
            let data = bytes_pattern len (op + arg) in
            let f =
              match Dir.namei_opt !fs path with
              | Some f -> f
              | None -> Dir.create_file !fs path
            in
            File.write !fs f ~off:0 data;
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
        | 1 -> (
            (* delete *)
            match Dir.namei_opt !fs path with
            | Some _ ->
                Dir.unlink !fs path;
                Hashtbl.remove model path
            | None -> ())
        | 2 -> Fs.flush !fs
        | 3 -> Fs.checkpoint !fs
        | 4 -> ignore (Cleaner.clean_once !fs ())
        | 5 ->
            Fs.unmount !fs;
            fs := remount store
        | _ -> assert false
      in
      (try List.iter apply ops with Fs.No_space -> ());
      (* verify everything the model says exists *)
      Hashtbl.fold
        (fun path expected acc ->
          acc
          &&
          match Dir.namei_opt !fs path with
          | None -> false
          | Some f ->
              let got = File.read !fs f ~off:0 ~len:(Bytes.length expected) in
              got = expected && f.Inode.size = Bytes.length expected)
        model true
      && Fs.check !fs = [])

(* random summaries survive serialization exactly *)
let prop_summary_roundtrip =
  let finfo_gen =
    QCheck.Gen.(
      map3
        (fun ino version blocks ->
          {
            Summary.fi_ino = ino;
            fi_version = version;
            fi_lastlength = 4096;
            fi_blocks = List.map (fun b -> Bkey.Data b) blocks;
          })
        (4 -- 1000) (1 -- 50)
        (list_size (1 -- 12) (0 -- 5000)))
  in
  let sum_gen =
    QCheck.Gen.(
      map3
        (fun next finfos inode_addrs ->
          {
            Summary.ss_next = next;
            ss_create = 1.5;
            ss_serial = 99L;
            ss_flags = 0;
            finfos;
            inode_addrs;
          })
        (0 -- 100000)
        (list_size (0 -- 10) finfo_gen)
        (list_size (0 -- 6) (1 -- 100000)))
  in
  QCheck.Test.make ~name:"summary serialization roundtrip" ~count:200 (QCheck.make sum_gen)
    (fun sum ->
      QCheck.assume (Summary.bytes_needed sum <= 4096);
      match Summary.deserialize (Summary.serialize ~block_size:4096 ~data_crc:7 sum) with
      | Ok (sum', 7) -> sum' = sum
      | _ -> false)

(* crash anywhere after a flush: mount recovers a consistent fs where
   every checkpointed-or-flushed file reads back exactly *)
let prop_crash_recovery =
  QCheck.Test.make ~name:"crash after flush preserves flushed data" ~count:25
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 12) (pair small_nat small_nat)))
    (fun (_seed, ops) ->
      let fs, store, _ = fresh_fs () in
      let durable = Hashtbl.create 8 in
      let volatile = Hashtbl.create 8 in
      List.iteri
        (fun i (a, b) ->
          let path = Printf.sprintf "/c%d" (a mod 5) in
          let len = 1 + (b * 311 mod 5000) in
          let data = bytes_pattern len (i + 1) in
          (let f =
             match Dir.namei_opt fs path with Some f -> f | None -> Dir.create_file fs path
           in
           File.write fs f ~off:0 data);
          let old = Option.value ~default:Bytes.empty (Hashtbl.find_opt volatile path) in
          let merged =
            if Bytes.length old <= len then data
            else begin
              let m = Bytes.copy old in
              Bytes.blit data 0 m 0 len;
              m
            end
          in
          Hashtbl.replace volatile path merged;
          match b mod 3 with
          | 0 ->
              Fs.flush fs;
              Hashtbl.reset durable;
              Hashtbl.iter (Hashtbl.replace durable) volatile
          | 1 ->
              Fs.checkpoint fs;
              Hashtbl.reset durable;
              Hashtbl.iter (Hashtbl.replace durable) volatile
          | _ -> ())
        ops;
      (* crash: remount from the store *)
      let fs2 = remount store in
      Fs.check fs2 = []
      && Hashtbl.fold
           (fun path expected acc ->
             acc
             &&
             match Dir.namei_opt fs2 path with
             | None -> false
             | Some f ->
                 File.read fs2 f ~off:0 ~len:(Bytes.length expected) = expected)
           durable true)

let test_live_audit_close () =
  let fs, _, _ = fresh_fs () in
  for i = 0 to 6 do
    let f = Dir.create_file fs (Printf.sprintf "/a%d" i) in
    File.write fs f ~off:0 (bytes_pattern ((i + 1) * 4096) i)
  done;
  Fs.flush fs;
  Dir.unlink fs "/a2";
  Dir.unlink fs "/a5";
  Fs.checkpoint fs;
  (* recorded live bytes track the recomputed truth within the
     documented drift (ifile write-behind) *)
  List.iter
    (fun (seg, recorded, actual) ->
      check Alcotest.bool
        (Printf.sprintf "segment %d: recorded %d vs actual %d" seg recorded actual)
        true
        (abs (recorded - actual) <= 4 * 4096))
    (Debug.live_audit fs)

(* Block keys spread over every level of a tree with [ppb] pointers per
   block: direct, single, double and triple data blocks, and L1, L2 and
   L3 blocks. *)
let gen_bkey ppb =
  let open QCheck.Gen in
  let nd = Bkey.ndirect in
  let top = Bkey.max_data_lbn ~ppb in
  frequency
    [
      (2, map (fun l -> Bkey.Data l) (0 -- (nd - 1)));
      (3, map (fun l -> Bkey.Data l) (nd -- (nd + ppb - 1)));
      (3, map (fun l -> Bkey.Data l) (nd + ppb -- min top (nd + ppb + (ppb * ppb) - 1)));
      (2, map (fun l -> Bkey.Data l) (min top (nd + ppb + (ppb * ppb)) -- top));
      (2, map (fun p -> Bkey.L1 p) (0 -- ((top - nd) / ppb)));
      (2, map (fun q -> Bkey.L2 q) (0 -- ppb));
      (1, return Bkey.L3);
    ]

(* [Bcache.parent]/[Bcache.slot] on packed keys locate the same pointer
   as [Bkey.parent] *)
let prop_packed_parent =
  QCheck.Test.make ~name:"packed-key parent and slot match Bkey.parent" ~count:2000
    (QCheck.make
       ~print:(fun (ppb, inum, bk) -> Format.asprintf "ppb %d, inum %d, %a" ppb inum Bkey.pp bk)
       QCheck.Gen.(oneofl [ 4; 128; 1024; 2048 ] >>= fun ppb ->
                   triple (return ppb) (0 -- 100_000) (gen_bkey ppb)))
    (fun (ppb, inum, bk) ->
      let key = Bcache.key inum bk in
      let parent = Bcache.parent ~ppb key and slot = Bcache.slot ~ppb key in
      match Bkey.parent ~ppb bk with
      | Bkey.In_block (pbk, i) -> parent = Bcache.key inum pbk && slot = i
      | Bkey.In_inode_direct i -> parent = Bcache.none && slot = i
      | Bkey.In_inode_single -> parent = Bcache.none && slot = Bkey.ndirect
      | Bkey.In_inode_double -> parent = Bcache.none && slot = Bkey.ndirect + 1
      | Bkey.In_inode_triple -> parent = Bcache.none && slot = Bkey.ndirect + 2)

(* The [Bkey]-walking count [Fs.segments_needed] made before it moved to
   packed keys and one reused table, kept as the oracle. *)
let segments_needed_oracle fs extra_blocks ~dirty_inums ~dead =
  let prm = Fs.param fs in
  let ppb = prm.Param.block_size / 4 in
  let bs_per_seg = Param.data_blocks_per_seg prm in
  let cache = Fs.bcache fs in
  let data = Bcache.dirty_count cache + extra_blocks in
  let ancestors = Hashtbl.create 32 in
  let owners = Hashtbl.create 32 in
  let rec walk inum bkey =
    match Bkey.parent ~ppb bkey with
    | Bkey.In_block (pbk, _) ->
        let pkey = Bcache.key inum pbk in
        if not (Hashtbl.mem ancestors pkey) then begin
          Hashtbl.replace ancestors pkey ();
          walk inum pbk
        end
    | _ -> ()
  in
  Bcache.iter_dirty cache (fun key _ _ ->
      let inum = Bcache.inum key in
      Hashtbl.replace owners inum ();
      walk inum (Bcache.bkey key));
  let indirect = Hashtbl.length ancestors in
  let ipb = Inode.per_block ~block_size:prm.Param.block_size in
  List.iter (fun inum -> Hashtbl.replace owners inum ()) dirty_inums;
  let ninodes = Hashtbl.length owners + dead in
  let inode_blocks = ((ninodes + ipb - 1) / ipb) + 1 in
  let total = data + indirect + inode_blocks in
  let summaries = (total / bs_per_seg) + 2 in
  ((total + summaries + bs_per_seg - 1) / bs_per_seg) + 1

(* Random dirty sets over several files, with new (dirty) and freed
   inodes beside them, on 512-byte and 4 KB blocks. A wrong count moves
   the point where [Fs.flush] raises [No_space]. *)
let prop_segments_needed =
  let gen =
    let open QCheck.Gen in
    oneofl [ 512; 4096 ] >>= fun bs ->
    let ppb = bs / 4 in
    quad (return bs)
      (list_size (0 -- 200) (pair (20 -- 27) (gen_bkey ppb)))
      (0 -- 4) bool
  in
  let print (bs, blocks, fresh, free) =
    Printf.sprintf "bs %d, %d fresh inodes%s, dirty [%s]" bs fresh
      (if free then " (one freed)" else "")
      (String.concat "; "
         (List.map (fun (i, bk) -> Format.asprintf "%d:%a" i Bkey.pp bk) blocks))
  in
  QCheck.Test.make ~name:"segments_needed matches the Bkey-walking count" ~count:300
    (QCheck.make ~print gen)
    (fun (bs, blocks, fresh, free) ->
      let prm = { (Param.for_tests ~seg_blocks:32 ~nsegs:64 ()) with Param.block_size = bs } in
      let fs, _, _ = fresh_fs ~prm () in
      let cache = Fs.bcache fs in
      List.iter
        (fun (inum, bk) ->
          let b = Bcache.take cache in
          Bcache.put_dirty_buf cache (Bcache.key inum bk) ~old_addr:(-1) ~crc:(-1) b)
        blocks;
      let inos = List.init fresh (fun _ -> Fs.alloc_inode fs ~kind:Inode.Reg) in
      let dirty_inums, dead =
        match inos with
        | ino :: rest when free ->
            Fs.free_inode fs ino.Inode.inum;
            (List.map (fun i -> i.Inode.inum) rest, 1)
        | _ -> (List.map (fun i -> i.Inode.inum) inos, 0)
      in
      List.for_all
        (fun extra ->
          Fs.segments_needed fs extra = segments_needed_oracle fs extra ~dirty_inums ~dead)
        [ 0; 1; 40 ])

let props =
  [
    prop_bkey_roundtrip; prop_fs_vs_model; prop_summary_roundtrip; prop_crash_recovery;
    prop_packed_parent; prop_segments_needed;
  ]

let suite =
  [
    ( "lfs.bkey",
      [
        Alcotest.test_case "parent math" `Quick test_bkey_parents;
        Alcotest.test_case "levels" `Quick test_bkey_levels;
      ] );
    ( "lfs.summary",
      [
        Alcotest.test_case "roundtrip" `Quick test_summary_roundtrip;
        Alcotest.test_case "checksum detects corruption" `Quick test_summary_checksum;
        Alcotest.test_case "garbage rejected" `Quick test_summary_garbage;
        Alcotest.test_case "capacity enforced" `Quick test_summary_capacity;
      ] );
    ( "lfs.inode",
      [
        Alcotest.test_case "roundtrip" `Quick test_inode_roundtrip;
        Alcotest.test_case "pack/find" `Quick test_inode_pack_find;
      ] );
    ( "lfs.imap",
      [
        Alcotest.test_case "alloc/free" `Quick test_imap_alloc_free;
        Alcotest.test_case "serialize" `Quick test_imap_serialize;
      ] );
    ( "lfs.segusage",
      [
        Alcotest.test_case "transitions" `Quick test_segusage_transitions;
        Alcotest.test_case "next_clean" `Quick test_segusage_next_clean;
        Alcotest.test_case "serialize" `Quick test_segusage_serialize;
      ] );
    ( "lfs.dirent",
      [
        Alcotest.test_case "ops" `Quick test_dirent_ops;
        Alcotest.test_case "full block" `Quick test_dirent_full_block;
        Alcotest.test_case "bad names" `Quick test_dirent_bad_names;
      ] );
    ( "lfs.fs",
      [
        Alcotest.test_case "write/read roundtrip" `Quick test_fs_write_read_roundtrip;
        Alcotest.test_case "indirect blocks" `Quick test_fs_large_file_indirect;
        Alcotest.test_case "double indirect (512B blocks)" `Quick test_fs_deep_indirect;
        Alcotest.test_case "triple indirect via sparse file" `Quick
          test_fs_triple_indirect_sparse;
        Alcotest.test_case "sparse holes" `Quick test_fs_sparse_holes;
        Alcotest.test_case "overwrite accounting" `Quick test_fs_overwrite;
        Alcotest.test_case "unaligned writes" `Quick test_fs_partial_writes;
        Alcotest.test_case "truncate" `Quick test_fs_truncate;
        Alcotest.test_case "unlink frees space" `Quick test_fs_unlink_frees_space;
        Alcotest.test_case "ENOSPC raised" `Quick test_fs_no_space;
        Alcotest.test_case "invariants after churn" `Quick test_fs_check_after_churn;
      ] );
    ( "lfs.dir",
      [
        Alcotest.test_case "tree ops" `Quick test_dir_tree_ops;
        Alcotest.test_case "errors" `Quick test_dir_errors;
        Alcotest.test_case "hard links" `Quick test_dir_link_and_nlink;
        Alcotest.test_case "rename" `Quick test_dir_rename;
        Alcotest.test_case "symlink" `Quick test_dir_symlink;
        Alcotest.test_case "many entries" `Quick test_dir_many_entries;
      ] );
    ( "lfs.recovery",
      [
        Alcotest.test_case "unmount/mount roundtrip" `Quick test_mount_roundtrip;
        Alcotest.test_case "roll-forward recovers file" `Quick test_roll_forward_recovers_new_file;
        Alcotest.test_case "roll-forward replays delete" `Quick test_roll_forward_replays_delete;
        Alcotest.test_case "unflushed data lost cleanly" `Quick
          test_crash_before_flush_loses_only_recent;
        Alcotest.test_case "corrupt tail ignored" `Quick test_recovery_ignores_corrupt_tail;
        Alcotest.test_case "fallback checkpoint slot" `Quick
          test_double_crash_alternating_checkpoints;
        Alcotest.test_case "live-bytes audit" `Quick test_live_audit_close;
      ] );
    ( "lfs.cleaner",
      [
        Alcotest.test_case "reclaims dead segments" `Quick test_cleaner_reclaims;
        Alcotest.test_case "copies live data" `Quick test_cleaner_copies_live_data;
        Alcotest.test_case "clean until target" `Quick test_cleaner_until_target;
        Alcotest.test_case "multi-file partial (FINFO order)" `Quick
          test_cleaner_multi_file_partial;
        Alcotest.test_case "enables further writes" `Quick test_cleaner_enables_more_writes;
      ] );
    ("lfs.properties", List.map QCheck_alcotest.to_alcotest props);
  ]
