(* Operator's tour: the lifecycle features around the core hierarchy —
   on-line disk addition claiming the address-space dead zone (§6.3),
   whole-volume tertiary cleaning (§10), segment replicas with
   closest-copy reads (§5.4), and the delayed-access notification agent
   (§10).

     dune exec examples/operations.exe *)

open Lfs

let () =
  let engine = Sim.Engine.create () in
  Sim.Engine.spawn engine (fun () ->
      let prm = { (Param.default ~nsegs:24) with Param.max_inodes = 1024 } in
      (* headroom on the store stands in for the not-yet-installed disk *)
      let store =
        Device.Blockstore.create ~block_size:4096
          ~nblocks:(Layout.disk_blocks { prm with Param.nsegs = 64 })
      in
      let jukebox =
        Device.Jukebox.create engine ~drives:1 ~nvolumes:4 ~vol_capacity:(10 * 256)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "mo"
      in
      let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:10 [ jukebox ] in
      let hl =
        Highlight.Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~dead_zone_segs:64 ()
      in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in

      Printf.eprintf "MARK\n%!"; print_endline "== 1. the archive fills up; cold projects go to the jukebox ==";
      for p = 0 to 3 do
        let path = Printf.sprintf "/project%d" p in
        Highlight.Hl.write_file hl path (Bytes.make (4 * 1024 * 1024) (Char.chr (65 + p)));
        Sim.Engine.delay 3600.0
      done;
      ignore
        (Highlight.Migrator.migrate_paths st ~self_contained:true [ "/project0"; "/project1" ]);
      ignore (Cleaner.clean_until fs ~target_clean:12 ());
      Printf.printf "  disk: %d/%d clean; tertiary: %d segments in use\n" (Fs.nclean fs)
        prm.Param.nsegs
        (Highlight.State.tertiary_segments_used st);

      print_endline "\n== 2. demand grows: add a disk on-line (claims the dead zone) ==";
      Printf.printf "  before: %d log segments\n" (Fs.param fs).Param.nsegs;
      Highlight.Hl.grow_disk hl ~added_segs:24 ();
      Printf.printf "  after:  %d log segments (no unmount, no copy)\n" (Fs.param fs).Param.nsegs;

      print_endline "\n== 3. protect a precious data set with a tertiary replica ==";
      let tsegs = Highlight.Migrator.migrate_paths st ~self_contained:true [ "/project2" ] in
      let replicas = List.filter_map (Policy.Rearrange.replicate st) tsegs in
      Printf.printf "  %d segments replicated onto another volume; reads pick the loaded copy\n"
        (List.length replicas);

      print_endline "\n== 4. delete a project; the tertiary cleaner reclaims its volume ==";
      Dir.unlink fs "/project0";
      Fs.flush fs;
      (match Highlight.Tertiary_cleaner.select_volume st with
      | Some vol ->
          let r = Highlight.Tertiary_cleaner.clean_volume st vol in
          Printf.printf
            "  volume %d: scanned %d segments, re-migrated %d live blocks, medium erased\n"
            r.Highlight.Tertiary_cleaner.volume r.Highlight.Tertiary_cleaner.segments_scanned
            r.Highlight.Tertiary_cleaner.blocks_remigrated
      | None -> print_endline "  nothing worth cleaning");

      print_endline "\n== 5. a user touches an archived project; the agent says hold on ==";
      let stop_agent =
        Highlight.State.subscribe st (function
          | Highlight.State.Fetch_started _ ->
              print_endline "  [agent] hold on: your data is coming from the jukebox"
          | _ -> ())
      in
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/project1" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      let t0 = Sim.Engine.now engine in
      let back = Highlight.Hl.read_file hl "/project1" ~len:4096 () in
      assert (Bytes.get back 0 = 'B');
      Printf.printf "  first bytes of /project1 after %.1fs\n" (Sim.Engine.now engine -. t0);

      print_endline "\n== final state ==";
      print_string (Highlight.Hl_debug.render_hierarchy hl);
      (match Highlight.Hl.check hl with
      | [] -> print_endline "invariants: ok"
      | probs -> List.iter print_endline probs);
      stop_agent ();
      Highlight.Hl.unmount hl);
  Sim.Engine.run engine
