(* Shared experiment configuration: the paper's testbed (§7).

   HP 9000/370, 32 MB RAM (3.2 MB buffer cache), a DEC RZ57 with an
   848 MB partition for the file system, and an HP 6300 MO changer with
   two drives whose platters the tests constrained to 40 MB to force
   volume changes. Raw rates are calibrated to Table 5; everything else
   is produced by running the file systems over these models. *)

open Lfs

let frame_bytes = 4096
let frames = 12500 (* 51.2 MB object *)

(* 848 MB partition => 832 one-megabyte log segments + superblock area *)
let paper_prm =
  {
    Param.block_size = 4096;
    seg_blocks = 256;
    nsegs = 832;
    max_inodes = 4096;
    bcache_blocks = 800 (* 3.2 MB *);
    clean_reserve = 8;
    cpu = Param.cpu_1993;
  }

(* CPU model calibrated against Table 2's FFS column (see EXPERIMENTS.md) *)
let cpu = { Param.syscall = 0.0004; per_block = 0.0007; copy_rate = 3.2 *. 1024.0 *. 1024.0 }
let paper_prm = { paper_prm with Param.cpu = cpu }

type world = {
  bus : Device.Scsi_bus.t;
  rz57 : Device.Disk.t;
  jukebox : Device.Jukebox.t;
  fp : Footprint.t;
}

let make_world engine =
  let bus = Device.Scsi_bus.create engine "scsi0" in
  let rz57 = Device.Disk.create engine ~bus Device.Disk.rz57 ~name:"rz57" in
  let jukebox =
    Device.Jukebox.create engine ~bus ~drives:2 ~nvolumes:32
      ~vol_capacity:(10240 (* 40 MB, the tests' constrained platter size *))
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "hp6300"
  in
  let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume:40 [ jukebox ] in
  { bus; rz57; jukebox; fp }

let ffs_params =
  {
    (Ffs.default_params ~ngroups:26 ~blocks_per_group:8192) with
    Ffs.inodes_per_group = 160;
    cpu;
    bcache_blocks = 800;
  }

(* Simulated seconds consumed by every [in_sim] run since the last
   [take_sim_elapsed] — the per-target "simulated elapsed" figure the
   harness's bench.json reports. *)
let sim_elapsed = ref 0.0
let take_sim_elapsed () =
  let v = !sim_elapsed in
  sim_elapsed := 0.0;
  v

(* --out's trace.json: every [in_sim] run records into its own tracer
   (each engine's clock starts at 0) and the runs are concatenated onto
   one timeline, each offset by the simulated time accumulated before
   it. *)
let trace_requested = ref false
let trace_acc : Sim.Trace.t option ref = ref None
let trace_offset = ref 0.0

(* Harness-wide metrics (latency percentiles for bench.json): targets fold
   their instance's registry in with [harvest_metrics] before tearing
   the instance down. *)
let bench_metrics = Sim.Metrics.create ()

let harvest_metrics m =
  match Sim.Metrics.find_histogram m "service.demand_fetch_latency_s" with
  | Some h when Sim.Metrics.observations h > 0 ->
      Sim.Metrics.merge_histogram
        (Sim.Metrics.histogram bench_metrics "service.demand_fetch_latency_s")
        h
  | _ -> ()

(* Wait-profile attribution: a target that installs a {!Sim.Ledger}
   registry around a measured phase calls [take_attribution] once its
   simulation has drained (in-flight ledgers close on their own sim
   time, after the bench body exits). The per-class category blame is
   returned for the target's own report and recorded for bench.json. *)
let attributions : (string * (string * (string * float) list) list) list ref = ref []

let take_attribution label =
  let classes =
    List.map
      (fun (cs : Sim.Ledger.class_summary) ->
        ( cs.Sim.Ledger.cls,
          List.map
            (fun (c : Sim.Ledger.cat_stat) ->
              (Sim.Ledger.category_name c.Sim.Ledger.cat, c.Sim.Ledger.total_s))
            cs.Sim.Ledger.by_category ))
      (Sim.Ledger.summary ())
  in
  Sim.Ledger.uninstall ();
  attributions := !attributions @ [ (label, classes) ];
  classes

(* Blame-ranked lists put the dominant category first. *)
let dominant_wait classes cls =
  match List.assoc_opt cls classes with Some ((cat, _) :: _) -> cat | _ -> "-"

(* Run a benchmark body inside a simulation process and return its
   result once the simulation drains. *)
let in_sim engine f =
  let tracer = if !trace_requested then Some (Sim.Trace.start engine) else None in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"bench-main" (fun () -> result := Some (f ()));
  Sim.Engine.run engine;
  let elapsed = Sim.Engine.now engine in
  sim_elapsed := !sim_elapsed +. elapsed;
  (match tracer with
  | None -> ()
  | Some tr ->
      Sim.Trace.stop ();
      (match !trace_acc with
      | None -> trace_acc := Some tr
      | Some acc -> Sim.Trace.absorb acc ~offset:!trace_offset tr);
      trace_offset := !trace_offset +. elapsed);
  match !result with
  | Some r -> r
  | None -> failwith "bench: simulation did not complete"

(* paper-reported numbers for side-by-side tables *)
let kb v = v *. 1024.0

let paper_table2 =
  (* (phase, ffs, base lfs, hl on-disk, hl in-cache) in KB/s *)
  [
    ("sequential read", 1002.0, 819.0, 813.0, 813.0);
    ("sequential write", 1024.0, 639.0, 617.0, 596.0);
    ("random read", 152.0, 154.0, 152.0, 148.0);
    ("random write", 315.0, 749.0, 749.0, 807.0);
    ("read 80/20", 152.0, 154.0, 152.0, 148.0);
    ("write 80/20", 710.0, 873.0, 749.0, 749.0);
  ]

let paper_table3 =
  (* (size label, bytes, ffs first/total, hl cached first/total, hl uncached first/total) *)
  [
    ("10KB", 10 * 1024, (0.06, 0.09), (0.11, 0.12), (3.57, 3.59));
    ("100KB", 100 * 1024, (0.06, 0.27), (0.11, 0.27), (3.59, 3.73));
    ("1MB", 1024 * 1024, (0.06, 1.29), (0.10, 1.55), (3.51, 8.22));
    ("10MB", 10 * 1024 * 1024, (0.07, 11.89), (0.09, 13.68), (3.57, 44.23));
  ]

let paper_table4 = [ ("Footprint write", 62.0); ("I/O server read", 37.0); ("Migrator queuing", 1.0) ]

let paper_table5 =
  [
    ("Raw MO read", kb 451.0);
    ("Raw MO write", kb 204.0);
    ("Raw RZ57 read", kb 1417.0);
    ("Raw RZ57 write", kb 993.0);
    ("Raw RZ58 read", kb 1491.0);
    ("Raw RZ58 write", kb 1261.0);
  ]

let paper_table6 =
  (* staging config -> (contention, no-contention, overall) KB/s *)
  [
    ("RZ57", 111.0, 192.0, 135.0);
    ("RZ57+RZ58", 127.0, 202.0, 149.0);
    ("RZ57+HP7958A", 46.8, 145.0, 99.0);
  ]
