(* Ablations over the design choices the paper discusses but could not
   yet evaluate (§5, §10):

     policy    STP exponents x cache-eviction policy over a Zipf
               archival trace (read latency, fetch counts)
     staging   immediate vs delayed (idle-period) copy-out, §5.4
     segsize   segment size vs demand-fetch latency and migration rate
     prefetch  namespace-unit prefetch on a unit re-activation, §5.3 *)

open Util
open Lfs
open Workload

(* A mid-size HighLight world on a real RZ57 model. *)
let mid_world ?(seg_blocks = 256) ?(cache_policy = Highlight.Seg_cache.Lru) engine =
  let prm =
    {
      Config.paper_prm with
      Param.seg_blocks;
      nsegs = 128 * 256 / seg_blocks (* constant 128 MB of log *);
      max_inodes = 2048;
    }
  in
  let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"rz57" in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:8 ~vol_capacity:(24 * seg_blocks)
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "mo"
  in
  let fp = Footprint.create ~seg_blocks ~segs_per_volume:24 [ jb ] in
  let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp ~cache_policy () in
  (hl, fp)

(* ---------- policy ablation ---------- *)

(* One pairing of STP exponents x cache-eviction policy, with the
   decision observatory watching: closes the loop on how many demotions
   the workload immediately regretted (mistake rate) and how many
   evicted lines it re-fetched (eviction regret). *)
let run_policy_trace ~stp ~cache_policy =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      (* a small disk (32 MB of log) under an archive that outgrows it,
         so the watermarks actually drive migration *)
      let prm = { Config.paper_prm with Param.nsegs = 32; max_inodes = 1024 } in
      let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"rz57" in
      let jb =
        Device.Jukebox.create engine ~drives:2 ~nvolumes:8 ~vol_capacity:(24 * 256)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "mo"
      in
      let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:24 [ jb ] in
      let hl =
        Highlight.Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp ~cache_policy
          ~cache_segs:6 ()
      in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      Obs.Decision.install ~metrics:(Highlight.Hl.metrics hl) ();
      ignore (Dir.mkdir fs "/archive");
      let events =
        Trace.generate ~seed:7
          { Trace.default with Trace.events = 300; nfiles = 24; mean_file_bytes = 768 * 1024 }
      in
      let read_lat = Sim.Stats.create "read" in
      let migrate_tick = ref 0 in
      (* migration itself needs log space for its bookkeeping flushes: a
         disk that filled up mid-burst can leave even the migrator
         stuck, which the daemon form also tolerates — skip the round *)
      let migrate ~low_water ~high_water =
        try
          ignore
            (Policy.Automigrate.run_once ~policy_id:(Policy.Stp.policy_id stp) st
               ~policy:(Policy.Automigrate.stp_policy stp)
               ~low_water ~high_water)
        with Fs.No_space | Highlight.State.Tertiary_full -> ()
      in
      Trace.replay ~engine
        ~write:(fun path ~off data ->
          (try Highlight.Hl.write_file hl path ~off data
           with Fs.No_space ->
             (* emergency: migrate cold data out, reclaim, retry once *)
             migrate ~low_water:(Fs.param fs).Param.nsegs
               ~high_water:((Fs.param fs).Param.nsegs * 3 / 4);
             (try Highlight.Hl.write_file hl path ~off data with Fs.No_space -> ()));
          incr migrate_tick;
          (* the continuously-running migrator wakes between bursts *)
          if !migrate_tick mod 5 = 0 then
            migrate
              ~low_water:((Fs.param fs).Param.nsegs / 2)
              ~high_water:((Fs.param fs).Param.nsegs * 3 / 4))
        ~read:(fun path ~off ~len ->
          match Dir.namei_opt fs path with
          | None -> ()
          | Some ino ->
              let t0 = Sim.Engine.now engine in
              ignore (File.read fs ino ~off ~len);
              Sim.Stats.add read_lat (Sim.Engine.now engine -. t0))
        ~delete:(fun path -> try Dir.unlink fs path with Not_found -> ())
        events;
      let s = Highlight.Hl.stats hl in
      let sli = Obs.Decision.sli () in
      Obs.Decision.uninstall ();
      (Sim.Stats.mean read_lat, s.Highlight.Hl.demand_fetches, s.Highlight.Hl.bytes_migrated, sli))

let run_policy () =
  let table =
    Tablefmt.create
      ~title:"Ablation: migration ranking x cache eviction (Zipf archival trace)"
      ~header:
        [
          "STP exponents (t,s)"; "eviction"; "mean read"; "demand fetches"; "MB migrated";
          "mistake rate"; "evict regret";
        ]
  in
  let variants =
    List.concat_map
      (fun (te, se) ->
        List.map
          (fun (pname, pol) ->
            let mean, fetches, migrated, sli =
              run_policy_trace
                ~stp:{ Policy.Stp.time_exp = te; size_exp = se; min_idle = 30.0 }
                ~cache_policy:pol
            in
            let mistakes, demotions, regrets, evictions =
              match sli with
              | Some s ->
                  ( s.Obs.Decision.seg_mistakes, s.Obs.Decision.seg_demotions,
                    s.Obs.Decision.regrets, s.Obs.Decision.evictions )
              | None -> (0, 0, 0, 0)
            in
            let rate a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
            Tablefmt.add_row table
              [
                Printf.sprintf "(%.0f,%.0f)" te se;
                pname;
                Printf.sprintf "%.3f s" mean;
                string_of_int fetches;
                Printf.sprintf "%.1f" (float_of_int migrated /. 1048576.0);
                Printf.sprintf "%.3f (%d/%d)" (rate mistakes demotions) mistakes demotions;
                Printf.sprintf "%.3f (%d/%d)" (rate regrets evictions) regrets evictions;
              ];
            (te, se, pname, mean, fetches, migrated, mistakes, demotions, regrets, evictions))
          [ ("lru", Highlight.Seg_cache.Lru); ("least-worthy", Highlight.Seg_cache.Least_worthy) ])
      [ (1.0, 1.0); (1.0, 0.0); (0.0, 1.0); (2.0, 1.0) ]
  in
  Tablefmt.print table;
  let oc = open_out "BENCH_policy.json" in
  Printf.fprintf oc "{\n  \"schema\": \"highlight-bench-policy/v1\",\n  \"variants\": [\n";
  let n = List.length variants in
  List.iteri
    (fun i (te, se, pname, mean, fetches, migrated, mistakes, demotions, regrets, evictions) ->
      let rate a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      Printf.fprintf oc
        "    { \"stp\": [%g, %g], \"cache_policy\": %S, \"mean_read_s\": %.6f, \
         \"demand_fetches\": %d, \"bytes_migrated\": %d, \"seg_demotions\": %d, \
         \"seg_mistakes\": %d, \"mistake_rate\": %.4f, \"evictions\": %d, \"regrets\": %d, \
         \"eviction_regret_rate\": %.4f }%s\n"
        te se pname mean fetches migrated demotions mistakes (rate mistakes demotions)
        evictions regrets (rate regrets evictions)
        (if i = n - 1 then "" else ","))
    variants;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  print_endline "  wrote BENCH_policy.json"

(* ---------- staging (immediate vs delayed copy-out) ---------- *)

let staging_variant ~delayed =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      let hl, _fp = mid_world engine in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      (* a hot disk-resident file read during a fixed busy window while
         cold data migrates; delayed copy-out lands in the idle period
         after the window (the paper's 5.4 policy) *)
      let hot = Dir.create_file fs "/hot" in
      File.write fs hot ~off:0 (Bytes.create (1024 * 1024));
      let cold_paths = List.init 6 (fun i -> Printf.sprintf "/cold%d" i) in
      List.iter
        (fun p ->
          let f = Dir.create_file fs p in
          File.write fs f ~off:0 (Bytes.create (2 * 1024 * 1024)))
        cold_paths;
      Fs.checkpoint fs;
      let read_lat = Sim.Stats.create "hot reads" in
      let nreads = 600 in (* a 150 s busy window covers the whole immediate migration *)
      let finished = ref false in
      let reader_done = Sim.Condvar.create () in
      Sim.Engine.spawn engine (fun () ->
          let rng = Rng.create 3 in
          for _ = 1 to nreads do
            let t0 = Sim.Engine.now engine in
            ignore (File.read fs hot ~off:(Rng.int rng 200 * 4096) ~len:4096);
            Sim.Stats.add read_lat (Sim.Engine.now engine -. t0);
            Sim.Engine.delay 0.25
          done;
          finished := true;
          Sim.Condvar.broadcast reader_done);
      let await_reader () = while not !finished do Sim.Condvar.wait reader_done done in
      let t0 = Sim.Engine.now engine in
      let inums = List.map (fun p -> (Dir.namei fs p).Inode.inum) cold_paths in
      (if delayed then begin
         ignore (Highlight.Migrator.stage_files_only st inums);
         (* wait for the idle period, then copy out *)
         await_reader ();
         ignore (Highlight.Migrator.flush_staged st ())
       end
       else begin
         ignore (Highlight.Migrator.migrate_files st ~checkpoint:false inums);
         await_reader ()
       end);
      let elapsed = Sim.Engine.now engine -. t0 in
      Fs.checkpoint fs;
      (Sim.Stats.mean read_lat, elapsed))

let run_staging () =
  let imm_lat, imm_elapsed = staging_variant ~delayed:false in
  let del_lat, del_elapsed = staging_variant ~delayed:true in
  let table =
    Tablefmt.create ~title:"Ablation: immediate vs delayed segment copy-out (paper 5.4)"
      ~header:[ "variant"; "busy-window hot-read mean"; "data safe on tertiary after" ]
  in
  Tablefmt.add_row table
    [ "immediate"; Printf.sprintf "%.1f ms" (imm_lat *. 1000.0); Tablefmt.seconds imm_elapsed ];
  Tablefmt.add_row table
    [ "delayed"; Printf.sprintf "%.1f ms" (del_lat *. 1000.0); Tablefmt.seconds del_elapsed ];
  Tablefmt.print table;
  print_endline
    "  shape check: delaying copy-out shields foreground reads from disk-arm contention,";
  print_endline "  at the cost of reserved disk space and a longer time-to-tertiary."

(* ---------- segment size ---------- *)

let segsize_variant seg_blocks =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      let hl, _ = mid_world ~seg_blocks engine in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      let f = Dir.create_file fs "/blob" in
      File.write fs f ~off:0 (Bytes.create (8 * 1024 * 1024));
      let t0 = Sim.Engine.now engine in
      ignore (Highlight.Migrator.migrate_paths st [ "/blob" ]);
      let migrate_time = Sim.Engine.now engine -. t0 in
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/blob" ];
      Bcache.invalidate_clean (Fs.bcache fs);
      (* one cold 4 KB read: demand-fetch latency for this line size *)
      let t1 = Sim.Engine.now engine in
      ignore (File.read fs f ~off:0 ~len:4096);
      let fetch_latency = Sim.Engine.now engine -. t1 in
      (fetch_latency, 8.0 *. 1048576.0 /. migrate_time))

let run_segsize () =
  let table =
    Tablefmt.create ~title:"Ablation: segment (cache line) size"
      ~header:[ "segment"; "cold 4KB read latency"; "migration throughput" ]
  in
  List.iter
    (fun seg_blocks ->
      let latency, rate = segsize_variant seg_blocks in
      Tablefmt.add_row table
        [
          Printf.sprintf "%d KB" (seg_blocks * 4);
          Tablefmt.seconds latency;
          Tablefmt.kb_s rate;
        ])
    [ 64; 128; 256; 512 ];
  Tablefmt.print table;
  print_endline
    "  shape check: big segments amortise migration but make a cold random read pay for a";
  print_endline "  whole cache line; 1MB (the paper's choice) sits near the knee."

(* ---------- namespace-unit prefetch ---------- *)

let prefetch_variant ~prefetch =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      let hl, _ = mid_world engine in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      ignore (Dir.mkdir fs "/unit");
      let paths =
        Tree_gen.build fs ~seed:5 ~root:"/unit"
          { Tree_gen.files_per_dir = 8; fanout = 2; depth = 2;
            file_bytes_min = 100 * 1024; file_bytes_max = 200 * 1024 }
      in
      let tsegs = Highlight.Migrator.migrate_paths st ("/unit" :: paths) in
      (* unit hint, as in paper 5.3: a miss on any of the unit's segments
         prefetches the next segments of the same unit *)
      if prefetch then
        Highlight.Hl.set_prefetch_hints hl (fun tindex ->
            let rec after = function
              | t :: rest when t = tindex ->
                  List.filteri (fun i _ -> i < 3) rest
              | _ :: rest -> after rest
              | [] -> []
            in
            after (List.sort compare tsegs));
      Highlight.Hl.eject_tertiary_copies hl ~paths:("/unit" :: paths);
      Bcache.invalidate_clean (Fs.bcache fs);
      (* re-activation: read and analyse the whole unit; 0.5 s of
         processing per file gives prefetch something to overlap *)
      let t0 = Sim.Engine.now engine in
      List.iter
        (fun p ->
          let ino = Dir.namei fs p in
          ignore (File.read fs ino ~off:0 ~len:ino.Inode.size);
          Sim.Engine.delay 0.5)
        paths;
      Sim.Engine.now engine -. t0)

let run_prefetch () =
  let off = prefetch_variant ~prefetch:false in
  let on = prefetch_variant ~prefetch:true in
  let table =
    Tablefmt.create ~title:"Ablation: clustered-unit prefetch on re-activation (paper 5.3)"
      ~header:[ "prefetch"; "unit re-read time" ]
  in
  Tablefmt.add_row table [ "off"; Tablefmt.seconds off ];
  Tablefmt.add_row table [ "unit hints, depth 3"; Tablefmt.seconds on ];
  Tablefmt.print table

(* ---------- tertiary rearrangement (paper 5.4) ---------- *)

let rearrange_variant ~rearrange =
  let engine = Sim.Engine.create () in
  Config.in_sim engine (fun () ->
      let prm = { Config.paper_prm with Param.nsegs = 64; max_inodes = 1024 } in
      let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"rz57" in
      (* one MO drive: cross-volume analysis pays a swap per switch *)
      let jb =
        Device.Jukebox.create engine ~drives:1 ~nvolumes:6 ~vol_capacity:(10 * 256)
          ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "mo"
      in
      let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:10 [ jb ] in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp ~cache_segs:12 () in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      (* two satellite data sets, loaded and archived independently *)
      List.iter
        (fun (path, seed) ->
          let f = Dir.create_file fs path in
          File.write fs f ~off:0 (Bytes.make (4 * 1024 * 1024) seed);
          ignore (Highlight.Migrator.migrate_paths st [ path ]))
        [ ("/landsat", 'L'); ("/avhrr", 'A') ];
      let rearranger = Policy.Rearrange.create ~window:10_000.0 ~min_group:4 st in
      let _stop_observing =
        if rearrange then Policy.Rearrange.install rearranger else ignore
      in
      let analyse () =
        (* joint analysis: alternating chunks of both sets *)
        for chunk = 0 to 3 do
          List.iter
            (fun path ->
              let ino = Dir.namei fs path in
              ignore (File.read fs ino ~off:(chunk * 1024 * 1024) ~len:(1024 * 1024)))
            [ "/landsat"; "/avhrr" ]
        done
      in
      let cold () =
        Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/landsat"; "/avhrr" ];
        Bcache.invalidate_clean (Fs.bcache fs)
      in
      cold ();
      let t0 = Sim.Engine.now engine in
      analyse ();
      let first_run = Sim.Engine.now engine -. t0 in
      if rearrange then ignore (Policy.Rearrange.run_once rearranger);
      cold ();
      let t1 = Sim.Engine.now engine in
      analyse ();
      let second_run = Sim.Engine.now engine -. t1 in
      (first_run, second_run, Device.Jukebox.swaps jb))

let run_rearrange () =
  let base_first, base_second, base_swaps = rearrange_variant ~rearrange:false in
  let r_first, r_second, r_swaps = rearrange_variant ~rearrange:true in
  let table =
    Tablefmt.create
      ~title:"Ablation: tertiary rearrangement on co-access (paper 5.4)"
      ~header:[ "variant"; "1st joint analysis"; "2nd joint analysis"; "media swaps total" ]
  in
  Tablefmt.add_row table
    [ "static layout"; Tablefmt.seconds base_first; Tablefmt.seconds base_second;
      string_of_int base_swaps ];
  Tablefmt.add_row table
    [ "rearranged after 1st"; Tablefmt.seconds r_first; Tablefmt.seconds r_second;
      string_of_int r_swaps ];
  Tablefmt.print table;
  print_endline
    "  shape check: re-clustering the co-accessed segments cuts the second run's volume";
  print_endline "  switches, at the cost of extra tertiary space (old copies await the cleaner)."

let run () =
  run_policy ();
  run_staging ();
  run_segsize ();
  run_prefetch ();
  run_rearrange ()
