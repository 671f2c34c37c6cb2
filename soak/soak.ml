(* Soak test: a 300-event Zipf archival trace on a deliberately
   undersized HighLight disk, with watermark-driven automigration and
   emergency cleaning, audited with a full fsck every 25 events and at
   the end. This is the harness that found the FINFO-ordering and
   space-liveness bugs; it should always print "clean run".

   Every recording plane rides along ({!Obs.Run}) and the soak always
   writes its run directory, soak-run/. Its snapshots.csv samples the
   registry every simulated minute (cache hits/misses, queue-depth
   high-water, latency percentiles per interval) — the view that shows
   a slow leak or a queue ratchet which the end-of-run totals would
   average away — and host.json holds the soak's real-machine cost.

   The health plane watches lenient SLOs (latency far above anything a
   healthy soak produces, error rate < 1%): its
   slo.<name>.burn_fast/burn_slow/ok gauges land in the same CSV, so
   every snapshot row carries the per-window compliance timeline. A
   sustained burn — any objective actually firing — fails the run
   with exit 4.

     dune exec soak/soak.exe [seed] *)

open Lfs
open Workload

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let seed = match List.filter_map int_of_string_opt argv with s :: _ -> s | [] -> 7 in
  (* Lenient objectives: a healthy soak sits far inside both budgets, so
     a firing here is a real regression, not noise. *)
  let slo =
    match Obs.Health.parse "fetch_p99: demand_fetch.p99 < 600s\nerr: error_rate < 1%\n" with
    | Ok objectives -> objectives
    | Error e -> failwith ("soak: bad built-in SLOs: " ^ e)
  in
  let engine = Sim.Engine.create () in
  let run = Obs.Run.start ~slo ~dir:"soak-run" engine in
  let result = ref None in
  Sim.Engine.spawn engine (fun () ->
      let prm = { Soak_config.paper_prm with Param.nsegs = 24; max_inodes = 1024 } in
      let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"rz57" in
      let jb =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:8 ~vol_capacity:(24 * 256)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "mo"
      in
      let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:24 [ jb ] in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp ~cache_segs:6 () in
      Obs.Run.attach run ~metrics:(Highlight.Hl.metrics hl);
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      ignore (Dir.mkdir fs "/archive");
      Printf.printf "soak: trace seed %d\n%!" seed;
      let events =
        Trace.generate ~seed
          { Trace.default with Trace.events = 300; nfiles = 24; mean_file_bytes = 768 * 1024 }
      in
      let tick = ref 0 in
      let stp = { Policy.Stp.time_exp = 1.0; size_exp = 1.0; min_idle = 30.0 } in
      let check_now tag =
        if !tick mod 25 <> 0 then ()
        else
        match Highlight.Hl.check hl @ (try Debug.fsck fs with e -> [ "fsck raised: " ^ Printexc.to_string e ]) with
        | [] -> ()
        | probs ->
            Printf.eprintf "CORRUPT after %s (tick %d):\n" tag !tick;
            List.iter (fun p -> Printf.eprintf "  %s\n" p) probs;
            exit 2
      in
      Trace.replay ~engine
        ~write:(fun path ~off data ->
          incr tick;

          (try Highlight.Hl.write_file hl path ~off data
           with Fs.No_space ->
             Printf.eprintf "ENOSPC at write tick %d\n%!" !tick;
             ignore (Cleaner.clean_until fs ~target_clean:16 ()));
          check_now ("write " ^ path);
          if !tick mod 5 = 0 then begin
            (try
               ignore
                 (Policy.Automigrate.run_once st
                    ~policy:(Policy.Automigrate.stp_policy stp)
                    ~low_water:(prm.Param.nsegs / 2)
                    ~high_water:(prm.Param.nsegs * 3 / 4))
             with e -> Printf.eprintf "automigrate exn tick %d: %s\n%!" !tick (Printexc.to_string e));
            check_now "automigrate"
          end)
        ~read:(fun path ~off ~len ->
          incr tick;
          (match Dir.namei_opt fs path with
          | None -> ()
          | Some ino -> ignore (File.read fs ino ~off ~len));
          check_now ("read " ^ path))
        ~delete:(fun path ->
          incr tick;
          (try Dir.unlink fs path with Not_found -> ());
          check_now ("delete " ^ path))
        events;
      (match Highlight.Hl.check hl @ Debug.fsck fs with
       | [] -> ()
       | probs ->
           Printf.eprintf "CORRUPT at end:\n";
           List.iter (fun p -> Printf.eprintf "  %s\n" p) probs;
           exit 2);
      Obs.Run.stop run ~shutdown:(fun () -> Highlight.Hl.shutdown_service hl);
      result := Some ());
  Sim.Engine.run engine;
  ignore (Obs.Run.finish run);
  let h = Option.get (Obs.Run.health run) in
  let breached = Obs.Health.breached h in
  Printf.printf "health: %d ticks, %d alert(s), %d/%d objectives ok\n" (Obs.Health.ticks h)
    (List.length (Obs.Health.alerts h))
    (List.length (Obs.Health.compliance h) - List.length breached)
    (List.length (Obs.Health.compliance h));
  if breached <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf "SUSTAINED BURN: %s (%s): %d alert(s), worst burn %.2fx\n"
          r.Obs.Health.r_name r.Obs.Health.r_spec r.Obs.Health.r_alerts r.Obs.Health.r_worst_burn)
      breached;
    exit 4
  end;
  match !result with Some () -> print_endline "clean run" | None -> (print_endline "did not finish"; exit 3)
