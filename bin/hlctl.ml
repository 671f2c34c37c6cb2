(* hlctl — command-line driver for the HighLight simulation.

   The storage stack is an in-memory simulation, so each invocation
   builds a world, runs a scenario, and reports:

     hlctl devices                      device profile catalogue
     hlctl layout [--nsegs N ...]       address-space + layout dumps
     hlctl simulate [options]           workload + migration scenario
     hlctl fsck [options]               churn a file system, then audit *)

open Cmdliner
open Lfs

(* stashed by [in_sim] so the [--gc-stats] report can read the event
   count after the run *)
let last_engine = ref None

let in_sim f =
  let engine = Sim.Engine.create () in
  last_engine := Some engine;
  let result = ref None in
  Sim.Engine.spawn engine ~name:"hlctl-main" (fun () -> result := Some (f engine));
  Sim.Engine.run engine;
  (* a healthy scenario shuts its service processes down; anything still
     parked here is a deadlock (or a missing shutdown), so name names *)
  (match Sim.Engine.blocked_process_names engine with
  | [] -> ()
  | names ->
      Printf.eprintf "warning: %d process(es) still blocked at end of simulation: %s\n"
        (List.length names) (String.concat ", " names));
  match !result with Some r -> r | None -> failwith "simulation did not complete"

(* [--gc-stats] wraps the run and reports real-machine cost: retired
   events, CPU seconds, and allocation per event — the numbers the
   engine fast path moves. *)
let with_gc_stats enabled f =
  if not enabled then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let t0 = Sys.time () in
    let code = f () in
    let cpu = Sys.time () -. t0 in
    let g1 = Gc.quick_stat () in
    let events, sim_s =
      match !last_engine with
      | Some e -> (Sim.Engine.events_retired e, Sim.Engine.now e)
      | None -> (0, 0.0)
    in
    let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
    let major = g1.Gc.major_words -. g0.Gc.major_words in
    Printf.printf
      "gc-stats: %d events in %.3fs cpu (%.0f events/sec; %.1f sim-s per cpu-s)\n" events cpu
      (if cpu > 0.0 then float_of_int events /. cpu else 0.0)
      (if cpu > 0.0 then sim_s /. cpu else 0.0);
    Printf.printf
      "gc-stats: minor words %.3e (%.1f/event)   major words %.3e   collections %d minor / %d \
       major\n"
      minor
      (if events > 0 then minor /. float_of_int events else 0.0)
      major
      (g1.Gc.minor_collections - g0.Gc.minor_collections)
      (g1.Gc.major_collections - g0.Gc.major_collections);
    code
  end

let build_world engine ~nsegs ~nvolumes ~seg_blocks ~media =
  let prm =
    { (Param.default ~nsegs) with Param.seg_blocks; max_inodes = 4096; clean_reserve = 4 }
  in
  let disk =
    Device.Disk.create engine
      ~nblocks:(Layout.disk_blocks prm)
      Device.Disk.rz57 ~name:"disk0"
  in
  let media_prof, changer =
    match media with
    | `Mo -> (Device.Jukebox.hp6300_platter, Device.Jukebox.hp6300_changer)
    | `Tape -> (Device.Jukebox.metrum_tape, Device.Jukebox.metrum_changer)
  in
  let segs_per_volume = 40 in
  let jukebox =
    Device.Jukebox.create engine ~drives:2 ~nvolumes
      ~vol_capacity:(segs_per_volume * seg_blocks)
      ~media:media_prof ~changer "jukebox0"
  in
  let fp = Footprint.create ~seg_blocks ~segs_per_volume [ jukebox ] in
  (Highlight.Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp (), jukebox)

(* ---- devices ---- *)

let devices () =
  let t = Util.Tablefmt.create ~title:"device profiles" ~header:[ "device"; "read"; "write"; "notes" ] in
  List.iter
    (fun (p : Device.Disk.profile) ->
      Util.Tablefmt.add_row t
        [
          p.Device.Disk.model;
          Util.Tablefmt.kb_s p.Device.Disk.read_rate;
          Util.Tablefmt.kb_s p.Device.Disk.write_rate;
          Printf.sprintf "seek %.0f-%.0f ms" (p.Device.Disk.seek_min *. 1e3)
            (p.Device.Disk.seek_max *. 1e3);
        ])
    [ Device.Disk.rz57; Device.Disk.rz58; Device.Disk.hp7958a ];
  List.iter
    (fun (m : Device.Jukebox.media_profile) ->
      Util.Tablefmt.add_row t
        [
          m.Device.Jukebox.media_name;
          Util.Tablefmt.kb_s m.Device.Jukebox.read_rate;
          Util.Tablefmt.kb_s m.Device.Jukebox.write_rate;
          Printf.sprintf "%d MB/volume"
            (m.Device.Jukebox.capacity_blocks * m.Device.Jukebox.block_size / 1048576);
        ])
    [ Device.Jukebox.hp6300_platter; Device.Jukebox.metrum_tape; Device.Jukebox.sony_worm ];
  Util.Tablefmt.print t;
  0

(* ---- layout ---- *)

let layout nsegs nvolumes seg_blocks =
  in_sim (fun engine ->
      let hl, _ = build_world engine ~nsegs ~nvolumes ~seg_blocks ~media:`Mo in
      let fs = Highlight.Hl.fs hl in
      ignore (Dir.mkdir fs "/demo");
      Highlight.Hl.write_file hl "/demo/a" (Bytes.create (seg_blocks * 4096 * 2));
      ignore (Highlight.Migrator.migrate_paths (Highlight.Hl.state hl) [ "/demo/a" ]);
      print_string (Highlight.Hl_debug.render_address_map hl);
      print_newline ();
      print_string (Highlight.Hl_debug.render_layout hl);
      print_newline ();
      print_string (Highlight.Hl_debug.render_architecture hl);
      Highlight.Hl.shutdown_service hl;
      0)

(* ---- simulate ---- *)

(* [--faults] accepts either a plan file or the DSL inline, so CI can
   one-line a scenario: "jukebox0:drive* read prob=0.05 media_error" *)
let read_fault_plan spec =
  let text =
    if Sys.file_exists spec then In_channel.with_open_text spec In_channel.input_all
    else spec
  in
  match Sim.Fault.parse text with
  | Ok plan -> plan
  | Error msg ->
      Printf.eprintf "invalid fault plan: %s\n" msg;
      exit 1

(* [--readahead] selects the prefetch policy: "none", "fixed:N" (the
   static sequential depth), or "adaptive" (accuracy-driven depth). *)
let apply_readahead hl spec =
  match spec with
  | "none" -> None
  | "adaptive" -> Some (Highlight.Hl.set_prefetch_adaptive hl ())
  | s -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "fixed" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some d when d > 0 ->
              Highlight.Hl.set_prefetch_sequential hl ~depth:d;
              None
          | _ ->
              Printf.eprintf "invalid --readahead depth in %S\n" s;
              exit 1)
      | _ ->
          Printf.eprintf "unknown --readahead %S (none|fixed:N|adaptive)\n" s;
          exit 1)

(* [--profile] renders the closed-ledger summary: one row per request
   class x category, blame-ranked, plus the class totals the rows
   decompose. Percentages are of the class's end-to-end time, so the
   category rows of a class sum to ~100 (idle gaps are impossible: sim
   time only advances at charged block points). *)
let print_profile () =
  let t =
    Util.Tablefmt.create ~title:"wait profile (per request class)"
      ~header:[ "class"; "category"; "total"; "% of e2e"; "req"; "p95" ]
  in
  List.iteri
    (fun i (cs : Sim.Ledger.class_summary) ->
      if i > 0 then Util.Tablefmt.add_sep t;
      Util.Tablefmt.add_row t
        [
          cs.Sim.Ledger.cls;
          "(end to end)";
          Util.Tablefmt.seconds cs.Sim.Ledger.e2e_total_s;
          "100.0";
          string_of_int cs.Sim.Ledger.requests;
          Util.Tablefmt.seconds cs.Sim.Ledger.e2e_p95_s;
        ];
      List.iter
        (fun (c : Sim.Ledger.cat_stat) ->
          Util.Tablefmt.add_row t
            [
              "";
              Sim.Ledger.category_name c.Sim.Ledger.cat;
              Util.Tablefmt.seconds c.Sim.Ledger.total_s;
              (if cs.Sim.Ledger.e2e_total_s > 0.0 then
                 Printf.sprintf "%.1f" (100.0 *. c.Sim.Ledger.total_s /. cs.Sim.Ledger.e2e_total_s)
               else "-");
              string_of_int c.Sim.Ledger.count;
              Util.Tablefmt.seconds c.Sim.Ledger.p95_s;
            ])
        cs.Sim.Ledger.by_category)
    (Sim.Ledger.summary ());
  Util.Tablefmt.print t

(* [--slo] accepts a file or the DSL inline, like [--faults]. *)
let read_slo_spec spec =
  let text =
    if Sys.file_exists spec then In_channel.with_open_text spec In_channel.input_all
    else spec
  in
  match Obs.Health.parse text with
  | Ok [] ->
      Printf.eprintf "invalid --slo: no objectives in %S\n" spec;
      exit 1
  | Ok objs -> objs
  | Error msg ->
      Printf.eprintf "invalid --slo: %s\n" msg;
      exit 1

(* [--health-report] compliance table: one row per objective with the
   cumulative observed value, the final fast/slow burn rates, the worst
   slow-window burn of the run, and the alert count. *)
let print_health_report health =
  let t =
    Util.Tablefmt.create ~title:"SLO compliance"
      ~header:[ "objective"; "spec"; "value"; "burn fast"; "burn slow"; "worst"; "alerts"; "status" ]
  in
  List.iter
    (fun (r : Obs.Health.report) ->
      Util.Tablefmt.add_row t
        [
          r.Obs.Health.r_name;
          r.Obs.Health.r_spec;
          Printf.sprintf "%.3g" r.Obs.Health.r_value;
          Printf.sprintf "%.2fx" r.Obs.Health.r_burn_fast;
          Printf.sprintf "%.2fx" r.Obs.Health.r_burn_slow;
          Printf.sprintf "%.2fx" r.Obs.Health.r_worst_burn;
          string_of_int r.Obs.Health.r_alerts;
          (if r.Obs.Health.r_ok then "ok" else "BREACH");
        ])
    (Obs.Health.compliance health);
  Util.Tablefmt.print t;
  match Obs.Health.alerts health with
  | [] -> Printf.printf "alerts fired: none\n"
  | alerts ->
      Printf.printf "alerts fired: %d\n" (List.length alerts);
      List.iter
        (fun (a : Obs.Health.alert) ->
          Printf.printf "  t=%-8.0f %-18s %-24s %s\n" a.Obs.Health.a_at a.Obs.Health.a_kind
            a.Obs.Health.a_name a.Obs.Health.a_detail;
          Option.iter (fun p -> Printf.printf "  %10s black box: %s\n" "" p) a.Obs.Health.a_bundle)
        alerts

(* [--decisions] / [--shadow] post-run report: the observatory SLIs, the
   per-policy breakdowns, and the counterfactual scoreboard of every
   shadow policy — the "policy X would have recalled 38% fewer bytes"
   blame lines the ISSUE asks for. *)
let print_observatory shadows =
  match Obs.Decision.sli () with
  | None -> ()
  | Some s ->
      print_newline ();
      Printf.printf
        "observatory: %d decisions (%d dropped)   migration mistakes: %d/%d demotions \
         (rate %.3f)\n"
        s.Obs.Decision.decisions s.Obs.Decision.dropped s.Obs.Decision.seg_mistakes
        s.Obs.Decision.seg_demotions s.Obs.Decision.mistake_rate;
      Printf.printf
        "observatory: file recalls %d/%d (%.1f KB pulled back)   eviction regret: %d/%d \
         (rate %.3f)\n"
        s.Obs.Decision.file_recalls s.Obs.Decision.file_demotions
        (float_of_int s.Obs.Decision.recalled_bytes /. 1024.0)
        s.Obs.Decision.regrets s.Obs.Decision.evictions s.Obs.Decision.regret_rate;
      List.iter
        (fun (e : Obs.Decision.evict_sli) ->
          Printf.printf "  evict policy %-14s %4d evictions  %4d regrets\n"
            e.Obs.Decision.ev_policy e.Obs.Decision.ev_evictions e.Obs.Decision.ev_regrets)
        s.Obs.Decision.by_evict_policy;
      List.iter
        (fun (c : Obs.Decision.clean_sli) ->
          Printf.printf
            "  clean policy %-14s write-amp %.2f (%d segs, %.1f KB copied / %.1f KB \
             reclaimed)\n"
            c.Obs.Decision.cl_policy c.Obs.Decision.cl_write_amp c.Obs.Decision.cl_segments
            (float_of_int c.Obs.Decision.cl_copied_bytes /. 1024.0)
            (float_of_int c.Obs.Decision.cl_reclaimed_bytes /. 1024.0))
        s.Obs.Decision.by_clean_policy;
      Option.iter
        (fun t ->
          let reports = Obs.Shadow.reports t in
          if reports <> [] then begin
            let tbl =
              Util.Tablefmt.create ~title:"shadow policies (counterfactual)"
                ~header:
                  [
                    "policy"; "decisions"; "agree"; "demote"; "recall"; "recalled";
                    "evict"; "regret"; "copied";
                  ]
            in
            List.iter
              (fun (r : Obs.Shadow.report) ->
                Util.Tablefmt.add_row tbl
                  [
                    r.Obs.Shadow.r_name;
                    string_of_int r.Obs.Shadow.r_decisions;
                    Printf.sprintf "%.2f" r.Obs.Shadow.r_agreement;
                    string_of_int r.Obs.Shadow.r_demotions;
                    string_of_int r.Obs.Shadow.r_recalls;
                    Printf.sprintf "%.1fKB" (float_of_int r.Obs.Shadow.r_recalled_bytes /. 1024.0);
                    string_of_int r.Obs.Shadow.r_evictions;
                    string_of_int r.Obs.Shadow.r_regrets;
                    Printf.sprintf "%.1fKB"
                      (float_of_int r.Obs.Shadow.r_clean_copied_bytes /. 1024.0);
                  ])
              reports;
            Util.Tablefmt.print tbl;
            (* the headline: counterfactual recall volume vs the live policy *)
            List.iter
              (fun (r : Obs.Shadow.report) ->
                if s.Obs.Decision.recalled_bytes > 0 && r.Obs.Shadow.r_demotions > 0 then begin
                  let live = float_of_int s.Obs.Decision.recalled_bytes in
                  let shad = float_of_int r.Obs.Shadow.r_recalled_bytes in
                  let pct = 100.0 *. Float.abs (live -. shad) /. live in
                  if shad <= live then
                    Printf.printf "  %s would have recalled %.0f%% fewer bytes\n"
                      r.Obs.Shadow.r_name pct
                  else
                    Printf.printf "  %s would have recalled %.0f%% more bytes\n"
                      r.Obs.Shadow.r_name pct
                end)
              reports
          end)
        shadows

let simulate nsegs nvolumes seg_blocks media files file_kb policy verbose trace_file
    metrics_file faults readahead idle_readahead profile snapshots_file snapshot_period
    gc_stats decisions_file shadow_spec decision_window slo_spec slo_strict health_report
    blackbox_dir =
  (* the profile and snapshot files are written after [in_sim] returns:
     shutdown only drains the queues — in-flight transfers finish on
     their own sim time, and their ledgers close after the main process
     has already exited *)
  let sampler = ref None in
  let health = ref None in
  let flight = ref None in
  let code =
    with_gc_stats gc_stats @@ fun () ->
    in_sim (fun engine ->
      let tracer = Option.map (fun _ -> Sim.Trace.start engine) trace_file in
      let fault_plan = Option.map read_fault_plan faults in
      let hl, jukebox = build_world engine ~nsegs ~nvolumes ~seg_blocks ~media in
      if profile <> None || slo_spec <> None then
        Sim.Ledger.install ~metrics:(Highlight.Hl.metrics hl) engine;
      (* the health plane: flight-recorder ring (shares the full tracer
         when --trace is also given), SLO burn-rate engine, watchdogs *)
      Option.iter
        (fun spec ->
          let objectives = read_slo_spec spec in
          let fl = Sim.Flight.start ~dir:blackbox_dir engine in
          flight := Some fl;
          health :=
            Some
              (Obs.Health.install ~flight:fl ~metrics:(Highlight.Hl.metrics hl) engine objectives))
        slo_spec;
      (* every unrecorded trace event (buffer drop or sampled out) now
         counts in the trace.dropped metric *)
      Option.iter
        (fun tr -> Sim.Trace.attach_metrics tr (Highlight.Hl.metrics hl))
        (Sim.Trace.current ());
      (* arm the decision observatory (and its shadows) before any
         migration or eviction decision can fire *)
      let obs_on = decisions_file <> None || shadow_spec <> None in
      let shadows =
        if not obs_on then None
        else begin
          Obs.Decision.install ~window:decision_window
            ~metrics:(Highlight.Hl.metrics hl) ();
          match shadow_spec with
          | None -> None
          | Some spec -> (
              match Obs.Shadow.parse_many spec with
              | Ok specs ->
                  let t = Obs.Shadow.create specs in
                  Obs.Shadow.attach t;
                  Some t
              | Error msg ->
                  Printf.eprintf "invalid --shadow %S: %s\n" spec msg;
                  exit 1)
        end
      in
      Option.iter
        (fun _ ->
          sampler :=
            Some
              (Sim.Snapshot.start engine ~metrics:(Highlight.Hl.metrics hl)
                 ~period:snapshot_period ()))
        snapshots_file;
      let ra = apply_readahead hl readahead in
      Highlight.Hl.set_idle_readahead hl idle_readahead;
      (* armed after mkfs: the plan targets the scenario, not the format,
         and the instance registry now exists for the fault counters *)
      Option.iter
        (fun plan -> Sim.Fault.install engine ~metrics:(Highlight.Hl.metrics hl) plan)
        fault_plan;
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      ignore (Dir.mkdir fs "/data");
      let rng = Util.Rng.create 42 in
      for i = 0 to files - 1 do
        let path = Printf.sprintf "/data/f%04d" i in
        let bytes = file_kb * 1024 / 2 * (1 + Util.Rng.int rng 2) in
        Highlight.Hl.write_file hl path (Bytes.create bytes);
        Sim.Engine.delay 60.0
      done;
      Fs.checkpoint fs;
      Sim.Engine.delay 3600.0;
      let migrated =
        match policy with
        | "stp" ->
            let inums =
              Policy.Stp.select fs Policy.Stp.default
                ~target_bytes:(files * file_kb * 1024 / 2)
            in
            List.length (Highlight.Migrator.migrate_files st inums)
        | "namespace" ->
            let units =
              Policy.Namespace.select fs Policy.Namespace.default_ranking ~root:"/data"
                ~target_bytes:(files * file_kb * 1024 / 2)
            in
            List.length
              (Highlight.Migrator.migrate_files st
                 (List.concat_map (fun u -> u.Policy.Namespace.inums) units))
        | "none" -> 0
        | p ->
            Printf.eprintf "unknown policy %s\n" p;
            exit 1
      in
      ignore (Cleaner.clean_until fs ~target_clean:(nsegs / 2) ());
      (* touch an archived file to show the fetch path: prefer one whose
         blocks really migrated, and drop its cached copies first so the
         read is a genuine demand fetch from the jukebox *)
      Bcache.invalidate_clean (Fs.bcache fs);
      let on_tertiary i =
        match Dir.namei_opt fs (Printf.sprintf "/data/f%04d" i) with
        | None -> false
        | Some ino ->
            let found = ref false in
            File.iter_assigned_blocks (Fs.map fs) ino (fun _ addr ->
                if Highlight.Addr_space.is_tertiary st.Highlight.State.aspace addr then
                  found := true);
            !found
      in
      let rec hunt i =
        if i >= files then Util.Rng.int rng files else if on_tertiary i then i else hunt (i + 1)
      in
      let victim = Printf.sprintf "/data/f%04d" (hunt 0) in
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ victim ];
      (* park the volumes too: the migration writes left the victim's
         volume in a drive, and a fetch that skips the robot would
         misrepresent what a cold tertiary access costs *)
      Device.Jukebox.dismount jukebox;
      let t0 = Sim.Engine.now engine in
      ignore (Highlight.Hl.read_file hl victim ());
      let fetch_time = Sim.Engine.now engine -. t0 in
      let s = Highlight.Hl.stats hl in
      Printf.printf "files written: %d   segments migrated: %d   clean segments: %d/%d\n" files
        migrated (Fs.nclean fs) nsegs;
      Printf.printf "tertiary: %d segments, %.1f MB live; re-read of %s took %.2fs\n"
        s.Highlight.Hl.tertiary_segments_used
        (float_of_int s.Highlight.Hl.tertiary_live_bytes /. 1048576.0)
        victim fetch_time;
      Printf.printf "demand fetches: %d   copies out: %d   cache: %d lines (%d evictions)\n"
        s.Highlight.Hl.demand_fetches s.Highlight.Hl.writeouts s.Highlight.Hl.cache_lines
        s.Highlight.Hl.cache_evictions;
      Printf.printf "first-block p50: %.3fs   full-fetch p50: %.3fs\n"
        s.Highlight.Hl.first_block_p50 s.Highlight.Hl.fetch_latency_p50;
      Option.iter
        (fun ra ->
          Printf.printf "readahead: depth %d   used %d   wasted %d   accuracy %.2f\n"
            (Highlight.Readahead.depth ra) (Highlight.Readahead.used ra)
            (Highlight.Readahead.wasted ra) (Highlight.Readahead.accuracy ra))
        ra;
      if idle_readahead then
        Printf.printf "idle readahead: issued %d   preempted %d   wasted %d\n"
          s.Highlight.Hl.idle_prefetches_issued s.Highlight.Hl.idle_prefetches_preempted
          s.Highlight.Hl.idle_prefetches_wasted;
      Option.iter
        (fun plan ->
          Printf.printf "faults injected: %d   io retries: %d   io failures: %d\n"
            (Sim.Fault.injected plan) s.Highlight.Hl.io_retries s.Highlight.Hl.io_failures;
          List.iter
            (fun (site, n) -> Printf.printf "  %-24s %d\n" site n)
            (Sim.Fault.injected_by_site plan))
        fault_plan;
      if obs_on then begin
        print_observatory shadows;
        Option.iter
          (fun path ->
            Obs.Decision.write_ndjson path;
            Printf.printf "decisions: %d records -> %s\n"
              (List.length (Obs.Decision.records ()))
              path)
          decisions_file;
        Obs.Decision.uninstall ()
      end;
      if verbose then begin
        print_newline ();
        print_string (Highlight.Hl_debug.render_hierarchy hl)
      end;
      Highlight.Hl.shutdown_service hl;
      Option.iter Obs.Health.stop !health;
      Option.iter Sim.Flight.stop !flight;
      Option.iter Sim.Snapshot.stop !sampler;
      Option.iter
        (fun path ->
          Sim.Trace.stop ();
          let tr = Option.get tracer in
          Sim.Trace.write_file tr path;
          Printf.printf "trace: %d events -> %s\n" (Sim.Trace.event_count tr) path;
          if Sim.Trace.dropped tr > 0 then
            Printf.eprintf
              "warning: trace buffer overflowed, %d event(s) dropped — re-run with a \
               larger buffer (Sim.Trace.start ~limit) for a complete trace\n"
              (Sim.Trace.dropped tr))
        trace_file;
      Option.iter
        (fun path ->
          Sim.Metrics.write_file (Highlight.Hl.metrics hl) path;
          Printf.printf "metrics -> %s\n" path)
        metrics_file;
      if fault_plan <> None then Sim.Fault.clear ();
      match Highlight.Hl.check hl with
      | [] ->
          print_endline "hierarchy invariants: ok";
          0
      | probs ->
          List.iter print_endline probs;
          1)
  in
  Option.iter
    (fun path ->
      print_newline ();
      print_profile ();
      Sim.Ledger.write_file path;
      Printf.printf "profile -> %s\n" path;
      Sim.Ledger.uninstall ())
    profile;
  Option.iter
    (fun path ->
      let s = Option.get !sampler in
      Sim.Snapshot.write_csv s path;
      Printf.printf "snapshots: %d samples (every %.0fs) -> %s\n"
        (Sim.Snapshot.length s) (Sim.Snapshot.period s) path)
    snapshots_file;
  match !health with
  | None -> code
  | Some h ->
      print_newline ();
      if health_report then print_health_report h
      else
        Printf.printf "health: %d ticks, %d alert(s)\n" (Obs.Health.ticks h)
          (List.length (Obs.Health.alerts h));
      if profile = None then Sim.Ledger.uninstall ();
      let breaches = Obs.Health.breached h in
      if slo_strict && breaches <> [] then begin
        List.iter
          (fun (r : Obs.Health.report) ->
            Printf.eprintf
              "slo-strict: %s breached (%s): %d alert(s), worst slow-window burn %.2fx\n"
              r.Obs.Health.r_name r.Obs.Health.r_spec r.Obs.Health.r_alerts
              r.Obs.Health.r_worst_burn)
          breaches;
        if code = 0 then 4 else code
      end
      else code

(* ---- fsck ---- *)

let fsck nsegs nvolumes seg_blocks =
  in_sim (fun engine ->
      let hl, _ = build_world engine ~nsegs ~nvolumes ~seg_blocks ~media:`Mo in
      let fs = Highlight.Hl.fs hl in
      let st = Highlight.Hl.state hl in
      let rng = Util.Rng.create 9 in
      ignore (Dir.mkdir fs "/churn");
      for round = 0 to 30 do
        let path = Printf.sprintf "/churn/f%d" (Util.Rng.int rng 10) in
        (try Highlight.Hl.write_file hl path (Bytes.create ((1 + Util.Rng.int rng 64) * 4096))
         with Fs.No_space -> ignore (Cleaner.clean_until fs ~target_clean:(nsegs / 2) ()));
        if round mod 7 = 3 then ignore (Highlight.Migrator.migrate_paths st [ path ]);
        if round mod 11 = 5 then
          try Dir.unlink fs path with Not_found | Dir.Not_dir _ -> ()
      done;
      Fs.checkpoint fs;
      Highlight.Hl.shutdown_service hl;
      match Highlight.Hl.check hl @ Debug.fsck fs with
      | [] ->
          print_endline "fsck: clean after churn/migrate/unlink rounds";
          0
      | probs ->
          List.iter print_endline probs;
          1)

(* ---- grow ---- *)

let grow nsegs nvolumes seg_blocks added =
  in_sim (fun engine ->
      (* a store with headroom stands in for the new spindle *)
      let prm =
        { (Param.default ~nsegs) with Param.seg_blocks; max_inodes = 4096; clean_reserve = 4 }
      in
      let store =
        Device.Blockstore.create ~block_size:prm.Param.block_size
          ~nblocks:(Layout.disk_blocks { prm with Param.nsegs = nsegs + added })
      in
      let media_prof, changer = (Device.Jukebox.hp6300_platter, Device.Jukebox.hp6300_changer) in
      let jukebox =
        Device.Jukebox.create engine ~drives:2 ~nvolumes ~vol_capacity:(40 * seg_blocks)
          ~media:media_prof ~changer "jukebox0"
      in
      let fp = Footprint.create ~seg_blocks ~segs_per_volume:40 [ jukebox ] in
      let hl = Highlight.Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp
          ~dead_zone_segs:(added + 16) () in
      let fs = Highlight.Hl.fs hl in
      Printf.printf "before: %d segments (%d clean)\n" (Fs.param fs).Param.nsegs (Fs.nclean fs);
      Highlight.Hl.write_file hl "/payload" (Bytes.create (seg_blocks * 4096 * 2));
      Highlight.Hl.grow_disk hl ~added_segs:added ();
      Printf.printf "after:  %d segments (%d clean); dead zone shrank accordingly\n"
        (Fs.param fs).Param.nsegs (Fs.nclean fs);
      print_string (Highlight.Hl_debug.render_address_map hl);
      Highlight.Hl.shutdown_service hl;
      match Highlight.Hl.check hl with
      | [] -> print_endline "invariants: ok"; 0
      | probs -> List.iter print_endline probs; 1)

(* ---- cmdliner wiring ---- *)

let nsegs_t = Arg.(value & opt int 64 & info [ "nsegs" ] ~doc:"Disk log segments.")
let nvols_t = Arg.(value & opt int 8 & info [ "volumes" ] ~doc:"Jukebox volumes.")
let segblocks_t = Arg.(value & opt int 256 & info [ "seg-blocks" ] ~doc:"Blocks per segment.")

let media_conv = Arg.enum [ ("mo", `Mo); ("tape", `Tape) ]

let media_t =
  Arg.(value & opt media_conv `Mo & info [ "media" ] ~doc:"Tertiary media type (mo|tape).")

let files_t = Arg.(value & opt int 24 & info [ "files" ] ~doc:"Files to create.")
let filekb_t = Arg.(value & opt int 512 & info [ "file-kb" ] ~doc:"Mean file size in KB.")

let policy_t =
  Arg.(value & opt string "stp" & info [ "policy" ] ~doc:"Migration policy (stp|namespace|none).")

let verbose_t = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Render the hierarchy.")

let trace_t =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON of the run (open in Perfetto).")

let metrics_t =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the metrics registry (counters, gauges, latency percentiles) as JSON.")

let faults_t =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"PLAN"
           ~doc:"Inject device faults: PLAN is a fault-plan file or inline DSL \
                 (e.g. 'jukebox0:drive* read prob=0.05 media_error transient'; \
                 sites are the trace track names of this world's devices).")

let profile_t =
  Arg.(value & opt ~vopt:(Some "profile.json") (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Attribute every request's latency to wait categories (queue, robot \
                 swap, seek, transfer, bus, cache-disk landing, locks): prints the \
                 wait-profile table and writes the JSON breakdown (default \
                 profile.json).")

let snapshots_t =
  Arg.(value & opt (some string) None
       & info [ "snapshots" ] ~docv:"FILE"
           ~doc:"Sample the metrics registry periodically during the run and write \
                 the time series as wide CSV (one row per sample).")

let snapshot_period_t =
  Arg.(value & opt float 60.0
       & info [ "snapshot-period" ] ~docv:"SECONDS"
           ~doc:"Simulated seconds between metric snapshots (with --snapshots).")

let gcstats_t =
  Arg.(value & flag
       & info [ "gc-stats" ]
           ~doc:"Report real-machine cost after the run: retired simulator events, CPU \
                 time, events/sec, and GC allocation per event.")

let decisions_t =
  Arg.(value & opt (some string) None
       & info [ "decisions" ] ~docv:"FILE"
           ~doc:"Record every policy decision (migration ranking, cleaner victims, \
                 volume choice, cache eviction) with its scored inputs and rejected \
                 candidates, print the closed-loop SLIs (migration mistakes, eviction \
                 regret, cleaner write-amplification), and write the audit log as \
                 NDJSON.")

let shadow_t =
  Arg.(value & opt (some string) None
       & info [ "shadow" ] ~docv:"SPECS"
           ~doc:"Replay every decision through shadow policies and report agreement \
                 and counterfactual mistake rates. SPECS is a '+'-separated list of \
                 'stp:TE,SE', 'greedy', 'cost_benefit', 'lru', 'least_worthy' \
                 (e.g. 'stp:2,1+lru'). Implies the decision observatory.")

let decision_window_t =
  Arg.(value & opt float 1800.0
       & info [ "decision-window" ] ~docv:"SECONDS"
           ~doc:"Sim-seconds after a demotion/eviction during which a re-access \
                 counts as a mistake/regret (with --decisions/--shadow).")

let slo_t =
  Arg.(value & opt (some string) None
       & info [ "slo" ] ~docv:"SPEC"
           ~doc:"Install the runtime health plane: SPEC is an SLO file or inline DSL \
                 (one objective per line, e.g. 'fetch_p99: demand_fetch.p99 < 40s'; \
                 metrics: error_rate, rate:bad/good, <hist>.pNN, \
                 <class>.<category>_frac; options burn=, fast=, slow=). Objectives \
                 are watched over fast/slow sliding windows with burn-rate alerting; \
                 every alert dumps a black-box bundle.")

let slostrict_t =
  Arg.(value & flag
       & info [ "slo-strict" ]
           ~doc:"Exit non-zero (4) if any SLO fired an alert during the run, naming \
                 the breaching objective and its burn rate (with --slo).")

let healthreport_t =
  Arg.(value & flag
       & info [ "health-report" ]
           ~doc:"Print the SLO compliance table and every alert fired, with black-box \
                 bundle paths (with --slo).")

let blackbox_t =
  Arg.(value & opt string "blackbox"
       & info [ "blackbox" ] ~docv:"DIR"
           ~doc:"Directory for flight-recorder black-box bundles (with --slo).")

let readahead_t =
  Arg.(value & opt string "none"
       & info [ "readahead" ] ~docv:"POLICY"
           ~doc:"Prefetch policy: 'none', 'fixed:N' (always stage the next N segments), \
                 or 'adaptive' (accuracy-driven depth that grows on sequential streaks \
                 and shrinks on wasted prefetches).")

let idle_readahead_t =
  Arg.(value & opt (enum [ ("on", true); ("off", false) ]) false
       & info [ "idle-readahead" ] ~docv:"on|off"
           ~doc:"Cost-aware idle readahead (default off): when a jukebox drive runs \
                 out of work, speculatively stage the warmest uncached segment of a \
                 volume already in a drive; queued idle fetches are cancelled the \
                 moment demand or write-out work arrives, so the gamble never lands \
                 on the critical path.")

(* --log enables the library's Logs source on stderr *)
let setup_logs level =
  (match level with
  | None -> ()
  | Some lvl ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.Src.set_level Highlight.Hl_log.src (Some lvl));
  ()

let log_conv = Arg.enum [ ("info", Logs.Info); ("debug", Logs.Debug) ]

let log_t =
  Arg.(value & opt (some log_conv) None & info [ "log" ] ~doc:"Emit highlight logs (info|debug).")

(* the log level is a leading parameter of every command so that
   [setup_logs] runs before the command body *)

let () =
  let doc = "HighLight: LFS-based tertiary storage management (simulation)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "hlctl" ~doc)
          [
            Cmd.v (Cmd.info "devices" ~doc:"List the simulated device profiles")
              Term.(const (fun lvl () -> setup_logs lvl; devices ()) $ log_t $ const ());
            Cmd.v (Cmd.info "layout" ~doc:"Dump the address space and on-disk layout")
              Term.(const (fun lvl a b c -> setup_logs lvl; layout a b c)
                    $ log_t $ nsegs_t $ nvols_t $ segblocks_t);
            Cmd.v (Cmd.info "simulate" ~doc:"Run a write/migrate/fetch scenario")
              Term.(const (fun lvl a b c d e f g h i j k l m n o p q r s t u v w x ->
                        setup_logs lvl;
                        simulate a b c d e f g h i j k l m n o p q r s t u v w x)
                    $ log_t $ nsegs_t $ nvols_t $ segblocks_t $ media_t $ files_t $ filekb_t
                    $ policy_t $ verbose_t $ trace_t $ metrics_t $ faults_t $ readahead_t
                    $ idle_readahead_t $ profile_t $ snapshots_t $ snapshot_period_t
                    $ gcstats_t $ decisions_t $ shadow_t $ decision_window_t
                    $ slo_t $ slostrict_t $ healthreport_t $ blackbox_t);
            Cmd.v (Cmd.info "grow" ~doc:"Demonstrate on-line disk addition (dead-zone claiming)")
              Term.(const (fun lvl a b c d -> setup_logs lvl; grow a b c d)
                    $ log_t $ nsegs_t $ nvols_t $ segblocks_t
                    $ Arg.(value & opt int 16 & info [ "add" ] ~doc:"Segments to add."));
            Cmd.v (Cmd.info "fsck" ~doc:"Churn a file system and audit its invariants")
              Term.(const (fun lvl a b c -> setup_logs lvl; fsck a b c)
                    $ log_t $ nsegs_t $ nvols_t $ segblocks_t);
          ]))
