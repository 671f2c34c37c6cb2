(* The segment walker ([Cleaner.fold_segment]) against an oracle that
   never reads a summary: after churn, every file's block map
   ([File.iter_assigned_blocks]) and the inode map say which blocks and
   inodes live in each segment, and the walker must find exactly those,
   in every Dirty log segment and every used tertiary segment. *)

open Highlight
open Lfs

let check = Alcotest.check
let bs = 4096
let seg_blocks = 16
let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 11)) land 0xff))

type where = Log of int | Tertiary of int

let where_name = function
  | Log seg -> Printf.sprintf "log segment %d" seg
  | Tertiary tindex -> Printf.sprintf "tertiary segment %d" tindex

(* What lives in one segment: file blocks as "addr inum bkey", inodes as
   "addr inode inum", sorted. *)
let file_entry addr inum bkey = Format.asprintf "%d ino %d %a" addr inum Bkey.pp bkey
let inode_entry addr inum = Printf.sprintf "%d inode %d" addr inum

let walked fsys src =
  Cleaner.fold_segment fsys src
    {
      Cleaner.file_block =
        (fun acc ~addr ~inum ~version bkey ->
          if Cleaner.is_live fsys ~addr ~inum ~version bkey then file_entry addr inum bkey :: acc
          else acc);
      inode_block = (fun acc ~addr:_ -> acc);
      live_inode = (fun acc ~addr ~inum -> inode_entry addr inum :: acc);
    }
    []
  |> List.sort compare

let churn hl =
  let st = Hl.state hl in
  let fsys = Hl.fs hl in
  (* 20 blocks reach past the direct pointers into an indirect block *)
  let sizes = [ 3; 20; 7; 12; 20; 5; 9; 16 ] in
  List.iteri
    (fun i n -> Hl.write_file hl (Printf.sprintf "/f%d" i) (bytes_pattern (n * bs) i))
    sizes;
  Fs.flush fsys;
  (* overwrites and unlinks leave dead blocks and inodes in the log *)
  File.write fsys (Dir.namei fsys "/f1") ~off:(4 * bs) (bytes_pattern (6 * bs) 40);
  File.write fsys (Dir.namei fsys "/f3") ~off:0 (bytes_pattern bs 41);
  Dir.unlink fsys "/f2";
  Fs.checkpoint fsys;
  ignore (Migrator.migrate_paths st [ "/f4"; "/f5"; "/f6" ]);
  (* and in tertiary segments: a migrated file is overwritten in part, and
     another unlinked *)
  File.write fsys (Dir.namei fsys "/f4") ~off:(2 * bs) (bytes_pattern (3 * bs) 42);
  Dir.unlink fsys "/f6";
  Fs.checkpoint fsys;
  ignore (Cleaner.clean_once fsys ~max_segments:2 ());
  Hl.write_file hl "/late" (bytes_pattern (5 * bs) 43);
  Fs.checkpoint fsys

let test_walker_matches_block_maps () =
  let engine = Sim.Engine.create () in
  let finished = ref false in
  Sim.Engine.spawn engine (fun () ->
      let prm = Param.for_tests ~seg_blocks ~nsegs:48 () in
      let disk =
        Dev.of_store (Device.Blockstore.create ~block_size:bs ~nblocks:(Layout.disk_blocks prm))
      in
      let jb =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:2 ~vol_capacity:(8 * seg_blocks)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
      in
      let fp = Footprint.create ~seg_blocks ~segs_per_volume:8 [ jb ] in
      let hl = Hl.mkfs engine prm ~disk ~fp ~cache_segs:8 () in
      churn hl;
      let st = Hl.state hl in
      let fsys = Hl.fs hl in
      let aspace = st.State.aspace in
      let tseg_used tindex =
        (Segusage.get st.State.tseg tindex).Segusage.state <> Segusage.Clean
      in
      let log_dirty seg = (Segusage.get (Fs.seguse fsys) seg).Segusage.state = Segusage.Dirty in
      (* the oracle: block maps and the inode map, bucketed by segment *)
      let expected = Hashtbl.create 64 in
      let place addr entry =
        let where =
          if Addr_space.is_tertiary aspace addr then
            let tindex = Addr_space.tindex_of_addr aspace addr in
            if tseg_used tindex then Some (Tertiary tindex) else None
          else
            match Layout.seg_of_addr prm addr with
            | Some seg when log_dirty seg -> Some (Log seg)
            | _ -> None
        in
        Option.iter
          (fun w ->
            Hashtbl.replace expected w
              (entry :: Option.value ~default:[] (Hashtbl.find_opt expected w)))
          where
      in
      Fs.iter_files fsys (fun inum e ->
          if e.Imap.addr > 0 then begin
            place e.Imap.addr (inode_entry e.Imap.addr inum);
            File.iter_assigned_blocks (Fs.map fsys) (Fs.get_inode fsys inum) (fun bkey addr ->
                place addr (file_entry addr inum bkey))
          end);
      let segments =
        List.filter log_dirty (List.init prm.Param.nsegs Fun.id)
        |> List.map (fun seg -> (Log seg, Cleaner.log_segment fsys seg))
      in
      let tsegments =
        List.filter tseg_used (List.init (Addr_space.ntsegs aspace) Fun.id)
        |> List.map (fun tindex -> (Tertiary tindex, Tertiary_cleaner.volume_segment st tindex))
      in
      check Alcotest.bool "churn left Dirty log segments" true (segments <> []);
      check Alcotest.bool "churn left used tertiary segments" true (tsegments <> []);
      List.iter
        (fun (where, src) ->
          let want =
            List.sort compare (Option.value ~default:[] (Hashtbl.find_opt expected where))
          in
          let got = walked fsys src in
          let missing = List.filter (fun x -> not (List.mem x got)) want in
          let extra = List.filter (fun x -> not (List.mem x want)) got in
          check (Alcotest.list Alcotest.string)
            (where_name where ^ ": live in the block maps, not found by the walker")
            [] missing;
          check (Alcotest.list Alcotest.string)
            (where_name where ^ ": found by the walker, not live in the block maps")
            [] extra)
        (segments @ tsegments);
      Hl.shutdown_service hl;
      finished := true);
  Sim.Engine.run engine;
  check Alcotest.bool "sim process finished" true !finished

let suite =
  [
    ( "lfs.walker",
      [
        Alcotest.test_case "walker agrees with the block maps" `Quick
          test_walker_matches_block_maps;
      ] );
  ]
