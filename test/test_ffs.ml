open Lfs

let check = Alcotest.check

let prm =
  { (Ffs.default_params ~ngroups:4 ~blocks_per_group:512) with
    Ffs.inodes_per_group = 64; cpu = Param.cpu_free; bcache_blocks = 128 }

let fresh_ffs () =
  let engine = Sim.Engine.create () in
  let store =
    Device.Blockstore.create ~block_size:prm.Ffs.block_size ~nblocks:(1 + (4 * 512))
  in
  let fs = Ffs.mkfs engine prm (Dev.of_store store) in
  (fs, store)

let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let test_write_read () =
  let fs, _ = fresh_ffs () in
  let f = Ffs.create_file fs "/a" in
  let data = bytes_pattern 20000 1 in
  Ffs.write fs f ~off:0 data;
  check Alcotest.bytes "cached read" data (Ffs.read fs f ~off:0 ~len:20000);
  Ffs.sync fs;
  Bcache.invalidate_clean (Ffs.bcache fs);
  check Alcotest.bytes "disk read" data (Ffs.read fs f ~off:0 ~len:20000)

let test_indirect () =
  let fs, _ = fresh_ffs () in
  let f = Ffs.create_file fs "/big" in
  let data = bytes_pattern (30 * 4096) 2 in
  Ffs.write fs f ~off:0 data;
  Ffs.sync fs;
  Bcache.invalidate_clean (Ffs.bcache fs);
  check Alcotest.bytes "indirect intact" data (Ffs.read fs f ~off:0 ~len:(30 * 4096));
  check Alcotest.bool "single used" true (f.Inode.single <> -1)

let test_contiguous_allocation () =
  let fs, _ = fresh_ffs () in
  let f = Ffs.create_file fs "/contig" in
  Ffs.write fs f ~off:0 (bytes_pattern (10 * 4096) 3);
  (* sequential allocation: direct pointers should be consecutive *)
  let a0 = f.Inode.direct.(0) in
  let consecutive = ref true in
  for i = 1 to 9 do
    if f.Inode.direct.(i) <> a0 + i then consecutive := false
  done;
  check Alcotest.bool "blocks contiguous" true !consecutive

let test_update_in_place () =
  let fs, _ = fresh_ffs () in
  let f = Ffs.create_file fs "/inplace" in
  Ffs.write fs f ~off:0 (bytes_pattern 4096 4);
  Ffs.sync fs;
  let addr_before = f.Inode.direct.(0) in
  Ffs.write fs f ~off:0 (bytes_pattern 4096 5);
  Ffs.sync fs;
  check Alcotest.int "address unchanged" addr_before f.Inode.direct.(0);
  Bcache.invalidate_clean (Ffs.bcache fs);
  check Alcotest.bytes "new content" (bytes_pattern 4096 5) (Ffs.read fs f ~off:0 ~len:4096)

let test_namespace () =
  let fs, _ = fresh_ffs () in
  ignore (Ffs.mkdir fs "/dir");
  ignore (Ffs.create_file fs "/dir/file");
  check Alcotest.bool "resolves" true (Ffs.namei_opt fs "/dir/file" <> None);
  let names = List.map fst (Ffs.readdir fs (Ffs.namei fs "/dir")) in
  check Alcotest.bool "listed" true (List.mem "file" names);
  Ffs.unlink fs "/dir/file";
  check Alcotest.bool "gone" true (Ffs.namei_opt fs "/dir/file" = None)

let test_unlink_frees () =
  let fs, _ = fresh_ffs () in
  let free0 = Ffs.free_blocks fs in
  let f = Ffs.create_file fs "/tmp" in
  Ffs.write fs f ~off:0 (bytes_pattern (20 * 4096) 6);
  Ffs.sync fs;
  check Alcotest.bool "space consumed" true (Ffs.free_blocks fs < free0);
  Ffs.unlink fs "/tmp";
  check Alcotest.bool
    (Printf.sprintf "space restored (%d vs %d)" (Ffs.free_blocks fs) free0)
    true
    (Ffs.free_blocks fs >= free0 - 1)

let test_mount_roundtrip () =
  let fs, store = fresh_ffs () in
  let f = Ffs.create_file fs "/persist" in
  let data = bytes_pattern 9000 7 in
  Ffs.write fs f ~off:0 data;
  Ffs.unmount fs;
  let fs2 = Ffs.mount (Sim.Engine.create ()) ~cpu:Param.cpu_free (Dev.of_store store) in
  let f2 = Ffs.namei fs2 "/persist" in
  check Alcotest.bytes "content survives" data (Ffs.read fs2 f2 ~off:0 ~len:9000);
  check Alcotest.int "free counts agree" (Ffs.free_blocks fs) (Ffs.free_blocks fs2)

let test_no_space () =
  let fs, _ = fresh_ffs () in
  let f = Ffs.create_file fs "/fill" in
  check Alcotest.bool "ENOSPC" true
    (try
       for i = 0 to 5000 do
         Ffs.write fs f ~off:(i * 4096) (bytes_pattern 4096 i)
       done;
       false
     with Ffs.No_space -> true)

let test_clustered_read_timing () =
  (* sequential reads on a real disk must be much faster per byte than
     random reads, thanks to clustering/read-ahead *)
  let engine = Sim.Engine.create () in
  let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"d0" in
  let p = { prm with Ffs.ngroups = 8; blocks_per_group = 4096; cpu = Param.cpu_1993 } in
  let result = ref (0.0, 0.0) in
  Sim.Engine.spawn engine (fun () ->
      let fs = Ffs.mkfs engine p (Dev.of_disk disk) in
      let f = Ffs.create_file fs "/seq" in
      let data = bytes_pattern (256 * 4096) 8 in
      Ffs.write fs f ~off:0 data;
      Ffs.sync fs;
      Bcache.invalidate_clean (Ffs.bcache fs);
      let t0 = Sim.Engine.now engine in
      for i = 0 to 255 do
        ignore (Ffs.read fs f ~off:(i * 4096) ~len:4096)
      done;
      let seq = Sim.Engine.now engine -. t0 in
      Bcache.invalidate_clean (Ffs.bcache fs);
      let rng = Util.Rng.create 5 in
      let t1 = Sim.Engine.now engine in
      for _ = 0 to 255 do
        ignore (Ffs.read fs f ~off:(Util.Rng.int rng 256 * 4096) ~len:4096)
      done;
      let rand = Sim.Engine.now engine -. t1 in
      result := (seq, rand));
  Sim.Engine.run engine;
  let seq, rand = !result in
  check Alcotest.bool
    (Printf.sprintf "sequential %.3fs beats random %.3fs" seq rand)
    true
    (seq *. 2.0 < rand)

let test_check_clean () =
  let fs, _ = fresh_ffs () in
  ignore (Ffs.mkdir fs "/x");
  let f = Ffs.create_file fs "/x/y" in
  Ffs.write fs f ~off:0 (bytes_pattern 5000 9);
  Ffs.sync fs;
  check Alcotest.(list string) "consistent" [] (Ffs.check fs)

(* One block at the first lbn under the triple-indirect pointer takes
   four: the data, an L1, an L2 and the L3 root. Unlink must free all. *)
let test_unlink_frees_triple () =
  let fs, _ = fresh_ffs () in
  let bs = prm.Ffs.block_size in
  let ppb = bs / 4 in
  let free0 = Ffs.free_blocks fs in
  let f = Ffs.create_file fs "/sparse" in
  Ffs.write fs f ~off:((Bkey.ndirect + ppb + (ppb * ppb)) * bs) (bytes_pattern bs 10);
  Ffs.sync fs;
  check Alcotest.bool "triple used" true (f.Inode.triple <> -1);
  check Alcotest.int "data, L1, L2 and L3 taken" (free0 - 4) (Ffs.free_blocks fs);
  Ffs.unlink fs "/sparse";
  check Alcotest.int "every block back" free0 (Ffs.free_blocks fs)

(* With group 0's data bits cleared on disk, every block of a 30-block
   file is reachable but unmarked: the audit must name the indirect
   block and the data under it, not only the direct blocks. *)
let test_check_audits_indirect () =
  let fs, store = fresh_ffs () in
  let bs = prm.Ffs.block_size in
  let f = Ffs.create_file fs "/f" in
  Ffs.write fs f ~off:0 (bytes_pattern (30 * bs) 11);
  Ffs.sync fs;
  let bitmap = Bytes.create bs in
  (* group 0's bitmap is the block after the superblock, followed by
     its inode table *)
  Device.Blockstore.read_into store ~blk:1 ~count:1 ~dst:bitmap ~dst_off:0;
  let meta = 1 + (((prm.Ffs.inodes_per_group * Inode.isize) + bs - 1) / bs) in
  for i = meta to prm.Ffs.blocks_per_group - 1 do
    let c = Char.code (Bytes.get bitmap (i / 8)) in
    Bytes.set bitmap (i / 8) (Char.chr (c land lnot (1 lsl (i mod 8))))
  done;
  Device.Blockstore.write store ~blk:1 bitmap;
  let fs2 = Ffs.mount (Sim.Engine.create ()) ~cpu:Param.cpu_free (Dev.of_store store) in
  let f2 = Ffs.namei fs2 "/f" in
  let problems = Ffs.check fs2 in
  let l1 = f2.Inode.single in
  let ptrs = Bytes.create bs in
  Device.Blockstore.read_into store ~blk:l1 ~count:1 ~dst:ptrs ~dst_off:0;
  let unmarked bkey addr =
    Format.asprintf "ino %d %a at %d not marked used" f2.Inode.inum Bkey.pp bkey addr
  in
  let expected =
    unmarked (Bkey.L1 0) l1
    :: List.init 18 (fun i ->
           unmarked (Bkey.Data (Bkey.ndirect + i)) (Util.Bytesx.get_i32 ptrs (i * 4)))
  in
  List.iter
    (fun msg -> check Alcotest.bool msg true (List.mem msg problems))
    expected

(* Partial writes to blocks not in the cache. One into the file's last
   block, past the file's end, keeps the block's bytes below the end.
   One into a hole reads zeros around the written bytes, not what a
   freed block held before. *)
let test_partial_writes_uncached () =
  let fs, _ = fresh_ffs () in
  let junk = Ffs.create_file fs "/junk" in
  Ffs.write fs junk ~off:0 (bytes_pattern (40 * 4096) 15);
  Ffs.sync fs;
  Ffs.unlink fs "/junk";
  let f = Ffs.create_file fs "/tail" in
  let head = bytes_pattern 5000 12 in
  Ffs.write fs f ~off:0 head;
  Ffs.sync fs;
  Bcache.invalidate_clean (Ffs.bcache fs);
  Ffs.write fs f ~off:5000 (bytes_pattern 100 13);
  Ffs.write fs f ~off:(20 * 4096) (bytes_pattern 4096 14);
  Ffs.write fs f ~off:((10 * 4096) + 10) (bytes_pattern 10 16);
  Ffs.sync fs;
  Bcache.invalidate_clean (Ffs.bcache fs);
  check Alcotest.bytes "tail block kept" head (Ffs.read fs f ~off:0 ~len:5000);
  check Alcotest.bytes "hole block zeroed" (Bytes.make 10 '\000')
    (Ffs.read fs f ~off:(10 * 4096) ~len:10)

(* The namespace is LFS's: its errors, and rmdir and rename, on FFS. *)
let test_shared_namespace () =
  let fs, _ = fresh_ffs () in
  ignore (Ffs.mkdir fs "/d");
  ignore (Ffs.create_file fs "/d/a");
  check Alcotest.bool "exists" true
    (try ignore (Ffs.create_file fs "/d/a"); false with Dir.Exists _ -> true);
  check Alcotest.bool "not a directory" true
    (try ignore (Ffs.namei fs "/d/a/b"); false with Dir.Not_dir _ -> true);
  Ffs.rename fs ~src:"/d/a" ~dst:"/b";
  check Alcotest.bool "renamed" true
    (Ffs.namei_opt fs "/b" <> None && Ffs.namei_opt fs "/d/a" = None);
  let free = Ffs.free_blocks fs in
  Ffs.rmdir fs "/d";
  check Alcotest.int "directory block freed" (free + 1) (Ffs.free_blocks fs);
  check Alcotest.(list string) "consistent" [] (Ffs.check fs)

let prop_ffs_roundtrip =
  QCheck.Test.make ~name:"ffs random writes read back" ~count:20
    QCheck.(small_list (pair small_nat small_nat))
    (fun ops ->
      let fs, _ = fresh_ffs () in
      let model = Hashtbl.create 8 in
      let paths = [| "/p0"; "/p1"; "/p2" |] in
      (try
         List.iter
           (fun (a, b) ->
             let path = paths.(a mod 3) in
             let len = 1 + (b * 97 mod 5000) in
             let data = bytes_pattern len (a + b) in
             let f =
               match Ffs.namei_opt fs path with
               | Some f -> f
               | None -> Ffs.create_file fs path
             in
             Ffs.write fs f ~off:0 data;
             let old = Option.value ~default:Bytes.empty (Hashtbl.find_opt model path) in
             let merged =
               if Bytes.length old <= len then data
               else begin
                 let m = Bytes.copy old in
                 Bytes.blit data 0 m 0 len;
                 m
               end
             in
             Hashtbl.replace model path merged)
           ops
       with Ffs.No_space -> ());
      Ffs.sync fs;
      Bcache.invalidate_clean (Ffs.bcache fs);
      Hashtbl.fold
        (fun path expected acc ->
          acc
          &&
          match Ffs.namei_opt fs path with
          | None -> false
          | Some f -> Ffs.read fs f ~off:0 ~len:(Bytes.length expected) = expected)
        model true)

let suite =
  [
    ( "ffs",
      [
        Alcotest.test_case "write/read" `Quick test_write_read;
        Alcotest.test_case "indirect blocks" `Quick test_indirect;
        Alcotest.test_case "contiguous allocation" `Quick test_contiguous_allocation;
        Alcotest.test_case "update in place" `Quick test_update_in_place;
        Alcotest.test_case "namespace" `Quick test_namespace;
        Alcotest.test_case "unlink frees" `Quick test_unlink_frees;
        Alcotest.test_case "mount roundtrip" `Quick test_mount_roundtrip;
        Alcotest.test_case "ENOSPC" `Quick test_no_space;
        Alcotest.test_case "clustering beats random" `Quick test_clustered_read_timing;
        Alcotest.test_case "consistency check" `Quick test_check_clean;
        Alcotest.test_case "unlink frees a triple-indirect tree" `Quick test_unlink_frees_triple;
        Alcotest.test_case "check audits indirect blocks" `Quick test_check_audits_indirect;
        Alcotest.test_case "partial writes to uncached blocks" `Quick test_partial_writes_uncached;
        Alcotest.test_case "namespace shared with LFS" `Quick test_shared_namespace;
      ] );
    ("ffs.properties", [ QCheck_alcotest.to_alcotest prop_ffs_roundtrip ]);
  ]
