(* Crash-recovery harness: Fs.crash_image snapshots the disk mid-run —
   no flush, no checkpoint, exactly what a power cut would leave — and
   the snapshot is remounted (with the surviving jukeboxes attached) to
   exercise roll-forward. The matrix crashes at every write-out
   boundary of a migration, before and after flushes, and with a torn
   log tail; in every case the remount must be consistent and all data
   the log promises must read back verbatim. *)

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
let seg_bytes = 16 * 4096

type world = { hl : Hl.t; store : Device.Blockstore.t; fp : Footprint.t; jb : Device.Jukebox.t }

let make_world ?(nsegs = 64) ?(cache_segs = 12) engine =
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
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs () in
  { hl; store; fp; jb }

let remount engine w img =
  Hl.mount engine ~disk:(Dev.of_store img) ~fp:w.fp ~cpu:Param.cpu_free ()

(* Crash after a flush (no checkpoint): roll-forward replays the log
   tail, so data written after the last checkpoint survives — and the
   running instance is undisturbed by the snapshot. *)
let test_crash_after_flush_rolls_forward () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fsys = Hl.fs w.hl in
      let a = bytes_pattern seg_bytes 3 in
      let b = bytes_pattern (2 * 4096) 5 in
      Hl.write_file w.hl "/a" a;
      Fs.checkpoint fsys;
      Hl.write_file w.hl "/b" b;
      Fs.flush fsys;
      let img = Fs.crash_image fsys w.store in
      (* the original keeps running off the live store *)
      check Alcotest.bytes "original /b intact" b (Hl.read_file w.hl "/b" ());
      check (Alcotest.list Alcotest.string) "original invariants" [] (Hl.check w.hl);
      let hl2 = remount engine w img in
      check Alcotest.bytes "/a verbatim" a (Hl.read_file hl2 "/a" ());
      check Alcotest.bytes "/b rolled forward" b (Hl.read_file hl2 "/b" ());
      check (Alcotest.list Alcotest.string) "remount invariants" [] (Hl.check hl2))

(* Crash with dirty buffers never flushed: only the checkpointed past
   survives; the unflushed file is cleanly absent, not half-present. *)
let test_crash_unflushed_loses_only_recent () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fsys = Hl.fs w.hl in
      let a = bytes_pattern seg_bytes 7 in
      Hl.write_file w.hl "/a" a;
      Fs.checkpoint fsys;
      Hl.write_file w.hl "/late" (bytes_pattern (2 * 4096) 9);
      let img = Fs.crash_image fsys w.store in
      let hl2 = remount engine w img in
      let fs2 = Hl.fs hl2 in
      check Alcotest.bytes "/a verbatim" a (Hl.read_file hl2 "/a" ());
      check Alcotest.bool "/late never reached the disk" true
        (Dir.namei_opt fs2 "/late" = None);
      check (Alcotest.list Alcotest.string) "remount invariants" [] (Hl.check hl2))

(* The migration matrix: snapshot the disk at EVERY write-out boundary
   of a migration, then remount each snapshot. Whatever mix of old
   disk addresses and new tertiary addresses the log tail holds at
   that instant, the remounted file system must be consistent and the
   file must read back verbatim (demand-fetching from the jukebox
   where the crash-point metadata says so). *)
let test_crash_at_every_writeout_boundary () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fsys = Hl.fs w.hl in
      let st = Hl.state w.hl in
      let a = bytes_pattern (3 * seg_bytes) 11 in
      Hl.write_file w.hl "/a" a;
      Fs.checkpoint fsys;
      let snapshots = ref [] in
      let unsubscribe =
        State.subscribe st (function
          | State.Writeout_done _ -> snapshots := Fs.crash_image fsys w.store :: !snapshots
          | _ -> ())
      in
      ignore (Migrator.migrate_paths st [ "/a" ]);
      unsubscribe ();
      check Alcotest.bool "migration produced write-outs" true (!snapshots <> []);
      List.iteri
        (fun i img ->
          let hl2 = remount engine w img in
          check Alcotest.bytes
            (Printf.sprintf "crash at write-out %d: /a verbatim" i)
            a (Hl.read_file hl2 "/a" ());
          check
            (Alcotest.list Alcotest.string)
            (Printf.sprintf "crash at write-out %d: invariants" i)
            [] (Hl.check hl2))
        (List.rev !snapshots);
      (* and the run that never crashed is still healthy *)
      check Alcotest.bytes "original /a verbatim" a (Hl.read_file w.hl "/a" ());
      check (Alcotest.list Alcotest.string) "original invariants" [] (Hl.check w.hl))

(* The streaming refinement of the matrix above: snapshot the disk at
   EVERY chunk boundary inside every streaming write-out. Mid-segment
   the tertiary copy is torn — only a prefix of the segment has reached
   the volume — but the log has not been re-pointed yet, so each
   remount must still serve the file from its on-disk blocks and check
   clean. *)
let test_crash_at_every_stream_chunk () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fsys = Hl.fs w.hl in
      let st = Hl.state w.hl in
      st.State.stream_chunk_blocks <- 4;
      let a = bytes_pattern (2 * seg_bytes) 17 in
      Hl.write_file w.hl "/a" a;
      Fs.checkpoint fsys;
      let snapshots = ref [] in
      let unsubscribe =
        State.subscribe st (function
          | State.Writeout_chunk _ -> snapshots := Fs.crash_image fsys w.store :: !snapshots
          | _ -> ())
      in
      ignore (Migrator.migrate_paths st [ "/a" ]);
      unsubscribe ();
      check Alcotest.bool "streaming write-out crossed several chunk boundaries" true
        (List.length !snapshots >= 4);
      List.iteri
        (fun i img ->
          let hl2 = remount engine w img in
          check Alcotest.bytes
            (Printf.sprintf "crash at chunk boundary %d: /a verbatim" i)
            a (Hl.read_file hl2 "/a" ());
          check
            (Alcotest.list Alcotest.string)
            (Printf.sprintf "crash at chunk boundary %d: invariants" i)
            [] (Hl.check hl2))
        (List.rev !snapshots);
      check Alcotest.bytes "original /a verbatim" a (Hl.read_file w.hl "/a" ());
      check (Alcotest.list Alcotest.string) "original invariants" [] (Hl.check w.hl))

(* Crash after a migration that was flushed but never checkpointed:
   roll-forward alone must re-point the file at tertiary, and the
   remounted service layer fetches it from the jukebox. *)
let test_crash_after_migration_before_checkpoint () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fsys = Hl.fs w.hl in
      let a = bytes_pattern (2 * seg_bytes) 13 in
      Hl.write_file w.hl "/a" a;
      Fs.checkpoint fsys;
      ignore (Migrator.migrate_paths (Hl.state w.hl) ~checkpoint:false [ "/a" ]);
      Fs.flush fsys;
      let img = Fs.crash_image fsys w.store in
      let hl2 = remount engine w img in
      let fs2 = Hl.fs hl2 in
      let ino = Dir.namei fs2 "/a" in
      let addr = Fs.lookup_addr fs2 ino (Bkey.Data 0) in
      check Alcotest.bool "roll-forward re-pointed /a at tertiary" true
        (Addr_space.is_tertiary (Hl.state hl2).State.aspace addr);
      (* force a real demand fetch, not a warm cache line *)
      Hl.eject_tertiary_copies hl2 ~paths:[ "/a" ];
      check Alcotest.bytes "/a fetched verbatim" a (Hl.read_file hl2 "/a" ());
      check Alcotest.bool "the read went to the jukebox" true
        ((Hl.stats hl2).Hl.demand_fetches > 0);
      check (Alcotest.list Alcotest.string) "remount invariants" [] (Hl.check hl2))

(* A torn log tail: erase one data block of the last flushed partial in
   the crash image. Roll-forward must stop at the damage — the torn
   file is absent, everything flushed before it is verbatim, and the
   file system still checks clean. *)
let test_torn_log_stops_roll_forward () =
  in_sim (fun engine ->
      let w = make_world engine in
      let fsys = Hl.fs w.hl in
      let a = bytes_pattern seg_bytes 3 in
      let b = bytes_pattern (4 * 4096) 5 in
      let c = bytes_pattern (4 * 4096) 9 in
      Hl.write_file w.hl "/a" a;
      Fs.checkpoint fsys;
      Hl.write_file w.hl "/b" b;
      Fs.flush fsys;
      Hl.write_file w.hl "/c" c;
      Fs.flush fsys;
      let ino_c = Dir.namei fsys "/c" in
      let torn = Fs.lookup_addr fsys ino_c (Bkey.Data 0) in
      let img = Fs.crash_image fsys w.store in
      Device.Blockstore.erase_block img torn;
      let fs2 = Fs.mount engine ~cpu:Param.cpu_free (Dev.of_store img) in
      check Alcotest.bool "torn file absent" true (Dir.namei_opt fs2 "/c" = None);
      let ino_b = Dir.namei fs2 "/b" in
      check Alcotest.bytes "earlier flush verbatim" b
        (File.read fs2 ino_b ~off:0 ~len:(Bytes.length b));
      let ino_a = Dir.namei fs2 "/a" in
      check Alcotest.bytes "checkpointed data verbatim" a
        (File.read fs2 ino_a ~off:0 ~len:(Bytes.length a));
      check (Alcotest.list Alcotest.string) "fsck clean" [] (Fs.check fs2))

(* Property: crash after any sequence of write+flush cycles — every
   flushed file is recovered verbatim by roll-forward. *)
let prop_flushed_files_survive_crash =
  QCheck.Test.make ~name:"all flushed files survive a crash image" ~count:10
    QCheck.(pair (int_range 1 5) (int_bound 1000))
    (fun (nfiles, seed) ->
      in_sim (fun engine ->
          let w = make_world engine in
          let fsys = Hl.fs w.hl in
          let files =
            List.init nfiles (fun i ->
                let path = Printf.sprintf "/f%d" i in
                let data = bytes_pattern ((1 + ((seed + i) mod 3)) * 4096) (seed + i) in
                Hl.write_file w.hl path data;
                Fs.flush fsys;
                (path, data))
          in
          let img = Fs.crash_image fsys w.store in
          let hl2 = remount engine w img in
          Hl.check hl2 = []
          && List.for_all
               (fun (path, data) -> Bytes.equal (Hl.read_file hl2 path ()) data)
               files))

(* Byte-identity oracle for the host-side data path: one fixed scenario
   (write, migrate to the MO jukebox, eject, read back, crash image)
   must leave exactly these bytes on every medium. The digest covers
   each store's written set and the contents of every written block, so
   a change to checksumming, buffer assembly or the block store that
   moves a single on-media byte fails here. *)
let golden_media_digest = "fcdb6a979ae48c8b9a9b9e3642f0fb3b"

let store_digest buf name store =
  let block = Bytes.create (Device.Blockstore.block_size store) in
  Buffer.add_string buf
    (Printf.sprintf "%s:%d:%d;" name (Device.Blockstore.nblocks store)
       (Device.Blockstore.written_blocks store));
  for blk = 0 to Device.Blockstore.nblocks store - 1 do
    if Device.Blockstore.is_written store blk then begin
      Buffer.add_string buf (string_of_int blk);
      Device.Blockstore.read_into store ~blk ~count:1 ~dst:block ~dst_off:0;
        Buffer.add_bytes buf block
    end
  done

let test_media_bytes_golden () =
  let digest =
    in_sim (fun engine ->
        let w = make_world engine in
        let fsys = Hl.fs w.hl in
        let files =
          List.init 4 (fun i ->
              (Printf.sprintf "/g%d" i, bytes_pattern ((i * seg_bytes / 2) + 1000 + (i * 77)) (31 + i)))
        in
        List.iter (fun (path, data) -> Hl.write_file w.hl path data) files;
        Fs.checkpoint fsys;
        ignore (Migrator.migrate_paths (Hl.state w.hl) (List.map fst files));
        Hl.eject_tertiary_copies w.hl ~paths:(List.map fst files);
        List.iter
          (fun (path, data) ->
            check Alcotest.bytes (path ^ " read back") data (Hl.read_file w.hl path ()))
          files;
        check Alcotest.bool "read-back demand-fetched from the jukebox" true
          ((Hl.stats w.hl).Hl.demand_fetches > 0);
        let img = Fs.crash_image fsys w.store in
        let buf = Buffer.create (1 lsl 20) in
        store_digest buf "disk" w.store;
        store_digest buf "crash" img;
        for vol = 0 to Device.Jukebox.nvolumes w.jb - 1 do
          store_digest buf (Printf.sprintf "vol%d" vol) (Device.Jukebox.volume_store w.jb vol)
        done;
        Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  check Alcotest.string "media digest" golden_media_digest digest

let suite =
  [
    ( "recovery.golden",
      [ Alcotest.test_case "media bytes match the golden digest" `Quick test_media_bytes_golden ] );
    ( "recovery.crash",
      [
        Alcotest.test_case "crash after flush rolls forward" `Quick
          test_crash_after_flush_rolls_forward;
        Alcotest.test_case "unflushed data cleanly absent" `Quick
          test_crash_unflushed_loses_only_recent;
        Alcotest.test_case "crash at every migration write-out" `Quick
          test_crash_at_every_writeout_boundary;
        Alcotest.test_case "crash at every streaming chunk boundary" `Quick
          test_crash_at_every_stream_chunk;
        Alcotest.test_case "migration survives crash before checkpoint" `Quick
          test_crash_after_migration_before_checkpoint;
        Alcotest.test_case "torn log tail stops roll-forward" `Quick
          test_torn_log_stops_roll_forward;
        QCheck_alcotest.to_alcotest prop_flushed_files_survive_crash;
      ] );
  ]
