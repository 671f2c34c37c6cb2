(* Block-buffer ownership in [Lfs.Bcache]: the cache takes every block
   it reads or fills from its own [Util.Bufpool] and gives the buffer
   back when the entry lets go of it. A buffer must never be held by two
   live entries, or by an entry and the free list, and a walk that
   inserts into the cache must not read through a buffer the cache may
   recycle under it. *)

open Highlight
open Lfs

let check = Alcotest.check
let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

(* --- model-based property over Bcache operations --- *)

type op =
  | Put_clean of Bcache.key * char
  | Put_dirty of Bcache.key * char
  | Mark_flushed of Bcache.key
  | Drop of Bcache.key
  | Drop_inum of int
  | Invalidate_clean
  | Find of Bcache.key

let show_key k = Format.asprintf "(%d,%a)" (Bcache.inum k) Bkey.pp (Bcache.bkey k)

let show_op = function
  | Put_clean (k, c) -> Printf.sprintf "put_clean %s %C" (show_key k) c
  | Put_dirty (k, c) -> Printf.sprintf "put_dirty %s %C" (show_key k) c
  | Mark_flushed k -> "mark_flushed " ^ show_key k
  | Drop k -> "drop " ^ show_key k
  | Drop_inum i -> Printf.sprintf "drop_inum %d" i
  | Invalidate_clean -> "invalidate_clean"
  | Find k -> "find " ^ show_key k

let gen_op =
  let open QCheck.Gen in
  let key = map2 (fun i lbn -> Bcache.key i (Bkey.Data lbn)) (int_range 1 2) (int_bound 3) in
  let content = map Char.chr (int_range 97 122) in
  frequency
    [
      (4, map2 (fun k c -> Put_clean (k, c)) key content);
      (3, map2 (fun k c -> Put_dirty (k, c)) key content);
      (2, map (fun k -> Mark_flushed k) key);
      (2, map (fun k -> Drop k) key);
      (1, map (fun i -> Drop_inum i) (int_range 1 2));
      (1, return Invalidate_clean);
      (4, map (fun k -> Find k) key);
    ]

let arb_ops = QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_bound 80) gen_op)

let block = 64

(* Runs [ops] on a 3-entry cache against a model of each key's content
   and dirtiness. A clean entry may have been evicted, so the model only
   requires that [find] returns the model's bytes when it returns any,
   and that dirty entries are always found. After every step no buffer
   may be held twice or be on the free list. *)
let run_ops ops =
  let cache = Bcache.create ~cap:3 ~block_size:block in
  let model : (Bcache.key, char * bool) Hashtbl.t = Hashtbl.create 8 in
  let fill c =
    let b = Bcache.take cache in
    Bytes.fill (Util.Bufpool.bytes b) 0 block c;
    b
  in
  let ownership_ok () =
    let held = Bcache.buffers cache in
    List.for_all (fun b -> not (Util.Bufpool.is_free b)) held
    && List.for_all (fun b -> List.length (List.filter (fun b' -> b' == b) held) = 1) held
  in
  let step op =
    (match op with
    | Put_clean (k, c) -> (
        match Hashtbl.find_opt model k with
        | Some (_, true) -> ()
        | _ ->
            Bcache.put_clean_buf cache k ~addr:7 ~crc:(-1) (fill c);
            Hashtbl.replace model k (c, false))
    | Put_dirty (k, c) ->
        Bcache.put_dirty_buf cache k ~old_addr:(-1) ~crc:(-1) (fill c);
        Hashtbl.replace model k (c, true)
    | Mark_flushed k -> (
        match Hashtbl.find_opt model k with
        | Some (c, true) ->
            Bcache.mark_flushed cache k ~addr:9;
            Hashtbl.replace model k (c, false)
        | _ -> ())
    | Drop k ->
        Bcache.drop cache k;
        Hashtbl.remove model k
    | Drop_inum i ->
        Bcache.drop_inum cache i;
        Hashtbl.filter_map_inplace (fun k v -> if Bcache.inum k = i then None else Some v) model
    | Invalidate_clean ->
        Bcache.invalidate_clean cache;
        Hashtbl.filter_map_inplace (fun _ ((_, dirty) as v) -> if dirty then Some v else None) model
    | Find _ -> ());
    let found_ok =
      match op with
      | Find k -> (
          let found = Bcache.find cache k in
          match ((if found == Bcache.miss then None else Some found), Hashtbl.find_opt model k) with
          | Some data, Some (c, _) -> Bytes.equal data (Bytes.make block c)
          | Some _, None -> false
          | None, Some (_, true) -> false
          | None, Some (_, false) ->
              (* evicted *)
              Hashtbl.remove model k;
              true
          | None, None -> true)
      | _ -> true
    in
    found_ok && ownership_ok ()
  in
  List.for_all step ops

let prop_ownership =
  QCheck.Test.make ~name:"one owner per buffer; find returns the model's bytes" ~count:500 arb_ops
    run_ops

let test_eviction_recycles () =
  let cache = Bcache.create ~cap:2 ~block_size:block in
  let put i =
    let b = Bcache.take cache in
    Bytes.fill (Util.Bufpool.bytes b) 0 block 'x';
    Bcache.put_clean_buf cache (Bcache.key i (Bkey.Data 0)) ~addr:i ~crc:(-1) b;
    b
  in
  let first = put 1 in
  ignore (put 2);
  ignore (put 3);
  check Alcotest.bool "the evicted entry's buffer is free" true (Util.Bufpool.is_free first);
  check Alcotest.bool "and is the next one taken" true (Bcache.take cache == first)

(* --- buffer lifetime across a pointer-tree walk --- *)

(* A HighLight world on 512-byte blocks, where a file of more than 140
   blocks reaches its double-indirect tree, with a buffer cache of
   [cache] blocks: insertions during a walk evict. *)
let with_world ~cache f =
  let e = Sim.Engine.create () in
  let finished = ref false in
  Sim.Engine.spawn e (fun () ->
      let prm =
        {
          (Param.for_tests ~seg_blocks:32 ~nsegs:96 ()) with
          Param.block_size = 512;
          bcache_blocks = cache;
        }
      in
      let disk =
        Dev.of_store (Device.Blockstore.create ~block_size:512 ~nblocks:(Layout.disk_blocks prm))
      in
      let media = { Device.Jukebox.hp6300_platter with Device.Jukebox.block_size = 512 } in
      let jb =
        Device.Jukebox.create e ~drives:2 ~nvolumes:4 ~vol_capacity:(16 * 32) ~media
          ~changer:Device.Jukebox.hp6300_changer "jb"
      in
      let fp = Footprint.create ~seg_blocks:32 ~segs_per_volume:16 [ jb ] in
      let hl = Hl.mkfs e prm ~disk ~fp ~cache_segs:8 () in
      f hl;
      Hl.shutdown_service hl;
      finished := true);
  Sim.Engine.run e;
  check Alcotest.bool "sim process finished" true !finished

let test_walk_with_tiny_cache cache () =
  with_world ~cache (fun hl ->
      let fs = Hl.fs hl in
      let st = Hl.state hl in
      (* /b's double-indirect block points at three L1 blocks *)
      let a = bytes_pattern (300 * 512) 3 and b = bytes_pattern ((400 * 512) + 100) 11 in
      Hl.write_file hl "/a" a;
      Hl.write_file hl "/b" b;
      Hl.write_file hl "/keep" (bytes_pattern 3000 5);
      check Alcotest.bool "double indirect used" true ((Dir.namei fs "/b").Inode.double <> -1);
      Fs.checkpoint fs;
      (* a visitor that reads another file inserts into the cache at
         every step; the walk must visit exactly what a quiet one does *)
      let walk visit =
        let seen = ref [] in
        File.iter_assigned_blocks (Fs.map fs) (Dir.namei fs "/b") (fun bkey addr ->
            visit ();
            seen := (Format.asprintf "%a" Bkey.pp bkey, addr) :: !seen);
        List.rev !seen
      in
      let quiet = walk ignore in
      check Alcotest.int "walk visits every block" (400 + 1 + 4 + 1) (List.length quiet);
      check
        Alcotest.(list (pair string int))
        "a reading visitor sees the same tree" quiet
        (walk (fun () -> ignore (Hl.read_file hl "/keep" ())));
      ignore (Migrator.migrate_paths st [ "/a"; "/b" ]);
      Hl.eject_tertiary_copies hl ~paths:[ "/a"; "/b" ];
      let audit what =
        check (Alcotest.list Alcotest.string) (what ^ ": fsck") [] (Debug.fsck fs);
        check (Alcotest.list Alcotest.string) (what ^ ": Hl.check") [] (Hl.check hl)
      in
      audit "after eject";
      check Alcotest.bool "/a reads back after eject" true (Bytes.equal a (Hl.read_file hl "/a" ()));
      check Alcotest.bool "/b reads back after eject" true (Bytes.equal b (Hl.read_file hl "/b" ()));
      let keep = (290 * 512) + 33 in
      File.truncate fs (Dir.namei fs "/a") keep;
      Dir.unlink fs "/b";
      Fs.checkpoint fs;
      audit "after truncate and unlink";
      check Alcotest.bool "/a keeps its prefix" true
        (Bytes.equal (Bytes.sub a 0 keep) (Hl.read_file hl "/a" ()));
      check Alcotest.bool "/keep untouched" true
        (Bytes.equal (bytes_pattern 3000 5) (Hl.read_file hl "/keep" ())))

let suite =
  [
    ( "bcache.buffers",
      [
        QCheck_alcotest.to_alcotest prop_ownership;
        Alcotest.test_case "eviction recycles the buffer" `Quick test_eviction_recycles;
        Alcotest.test_case "double-indirect walk, 2-block cache" `Quick (test_walk_with_tiny_cache 2);
        Alcotest.test_case "double-indirect walk, 1-block cache" `Quick (test_walk_with_tiny_cache 1);
      ] );
  ]
