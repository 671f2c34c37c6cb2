(* Quickstart: build a HighLight file system over a simulated disk and
   an MO jukebox, write a file, migrate it to tertiary storage, and read
   it back through the transparent demand-fetch path.

     dune exec examples/quickstart.exe *)

open Lfs

let () =
  let engine = Sim.Engine.create () in
  Sim.Engine.spawn engine (fun () ->
      (* hardware: one RZ57-class disk, one 2-drive MO jukebox *)
      let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"disk0" in
      let jukebox =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:8 ~vol_capacity:10240
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer
          "jukebox0"
      in
      let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:40 [ jukebox ] in
      (* a 64 MB file system with 1 MB segments *)
      let prm = { (Param.default ~nsegs:64) with Param.max_inodes = 1024 } in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp () in
      let fs = Highlight.Hl.fs hl in

      (* ordinary file system calls — applications need nothing special *)
      ignore (Dir.mkdir fs "/data");
      let payload = Bytes.init (3 * 1024 * 1024) (fun i -> Char.chr (i land 0xff)) in
      Highlight.Hl.write_file hl "/data/results.bin" payload;
      Printf.printf "wrote /data/results.bin (%d bytes) at t=%.2fs\n" (Bytes.length payload)
        (Sim.Engine.now engine);

      (* migrate it to the jukebox (normally a policy daemon does this) *)
      let tsegs = Highlight.Migrator.migrate_paths (Highlight.Hl.state hl) [ "/data/results.bin" ] in
      Printf.printf "migrated into %d tertiary segments at t=%.2fs\n" (List.length tsegs)
        (Sim.Engine.now engine);

      (* drop the cached copies so the next read must hit the jukebox *)
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/data/results.bin" ];
      Bcache.invalidate_clean (Fs.bcache fs);

      (* the paper's s10 notification agent: tell the user to hold on *)
      let stop_agent =
        Highlight.State.subscribe (Highlight.Hl.state hl) (function
          | Highlight.State.Fetch_started tindex ->
              Printf.printf
                "  [agent] hold on: fetching tertiary segment %d from the jukebox...\n" tindex
          | Highlight.State.Fetch_landed tindex ->
              Printf.printf "  [agent] segment %d is on disk, continuing\n" tindex
          | _ -> ())
      in

      let t0 = Sim.Engine.now engine in
      let back = Highlight.Hl.read_file hl "/data/results.bin" () in
      Printf.printf "read back %d bytes in %.2fs (demand-fetched from the jukebox)\n"
        (Bytes.length back)
        (Sim.Engine.now engine -. t0);
      assert (Bytes.equal back payload);

      (* a second read is served from the on-disk segment cache *)
      Bcache.invalidate_clean (Fs.bcache fs);
      let t1 = Sim.Engine.now engine in
      ignore (Highlight.Hl.read_file hl "/data/results.bin" ());
      Printf.printf "second read: %.2fs (segment cache on disk)\n" (Sim.Engine.now engine -. t1);

      let s = Highlight.Hl.stats hl in
      Printf.printf "\nstats: %d demand fetches, %d segment copies to tertiary, %d KB live on tertiary\n"
        s.Highlight.Hl.demand_fetches s.Highlight.Hl.writeouts
        (s.Highlight.Hl.tertiary_live_bytes / 1024);
      print_newline ();
      print_string (Highlight.Hl_debug.render_hierarchy hl);
      stop_agent ();
      Highlight.Hl.unmount hl);
  Sim.Engine.run engine
