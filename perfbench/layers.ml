(* Per-layer metrics of the traced run: counter deltas over the timed
   phase read from each layer's public interface, plus the span totals
   the benchmark recorded at the layer boundaries it calls through. *)

open Highlight

type devices = { disk : Device.Disk.t; jukebox : Device.Jukebox.t; fp : Footprint.t }

(* Workload-side tallies of layers that keep no counter of their own. *)
type tally = {
  mutable policy_files : int;  (** files [Automigrate.run_once] migrated *)
  mutable segments_cleaned : int;  (** by the benchmark's own cleaner calls *)
  mutable migrate_sim_s : float;  (** simulated seconds inside migrator calls *)
  mutable decision_records : int;
  mutable health_ticks : int;
  mutable snapshot_samples : int;
}

let tally () =
  {
    policy_files = 0;
    segments_cleaned = 0;
    migrate_sim_s = 0.0;
    decision_records = 0;
    health_ticks = 0;
    snapshot_samples = 0;
  }

(* Named counters; a world's timed-phase delta is [diff after before],
   and the deltas of several worlds add up with [add]. *)
type counters = (string * float) list

let diff (a : counters) (b : counters) = List.map2 (fun (k, x) (_, y) -> (k, x -. y)) a b
let add (a : counters) (b : counters) = List.map2 (fun (k, x) (_, y) -> (k, x +. y)) a b

(* Cumulative counters of a world's devices and file system. *)
let snap devs fs : counters =
  let open Device in
  let i = float_of_int in
  let bs = i (Lfs.Fs.param fs).Lfs.Param.block_size in
  let bc = Lfs.Fs.bcache fs in
  [
    ("device.disk.calls", i (Disk.reads devs.disk + Disk.writes devs.disk));
    ("device.disk.blocks_read", i (Disk.bytes_read devs.disk) /. bs);
    ("device.disk.blocks_written", i (Disk.bytes_written devs.disk) /. bs);
    ("device.disk.busy_s", Disk.busy_time devs.disk);
    ("device.disk.seek_s", Disk.seek_time devs.disk);
    ("device.jukebox.swaps", i (Jukebox.swaps devs.jukebox));
    ("device.jukebox.swap_s", Jukebox.swap_time_total devs.jukebox);
    ("device.jukebox.bytes_read", i (Jukebox.bytes_read devs.jukebox));
    ("device.jukebox.bytes_written", i (Jukebox.bytes_written devs.jukebox));
    ("footprint.busy_s", Footprint.time_in_footprint devs.fp);
    ("footprint.bytes_read", i (Footprint.bytes_read devs.fp));
    ("footprint.bytes_written", i (Footprint.bytes_written devs.fp));
    ("lfs.segments_written", i (Lfs.Fs.segments_written fs));
    ("lfs.partials_written", i (Lfs.Fs.partials_written fs));
    ("lfs.bcache.hits", i (Lfs.Bcache.hits bc));
    ("lfs.bcache.misses", i (Lfs.Bcache.misses bc));
  ]

(* The hierarchy core's counters since [Hl.reset_stats], i.e. already a
   timed-phase delta. Overlap factors are weighted by I/O time when
   worlds are added. *)
let service (hs : Hl.stats) : counters =
  let i = float_of_int in
  [
    ("core.migrator.segments_staged", i hs.segments_staged);
    ("core.service.demand_fetches", i hs.demand_fetches);
    ("core.service.writeouts", i hs.writeouts);
    ("core.service.queue_s", hs.queue_time);
    ("core.service.io_disk_s", hs.io_disk_time);
    ("core.service.io_tertiary_s", hs.io_tertiary_time);
    ("io_overlap_weighted", hs.io_overlap *. (hs.io_disk_time +. hs.io_tertiary_time));
    ("writeout_overlap_weighted", hs.writeout_overlap *. (hs.io_disk_time +. hs.io_tertiary_time));
    ("core.service.retries", i hs.io_retries);
    ("core.service.failures", i hs.io_failures);
    ("core.seg_cache.hits", i hs.cache_hits);
    ("core.seg_cache.misses", i hs.cache_misses);
    ("core.seg_cache.evictions", i hs.cache_evictions);
    ("core.readahead.used", i hs.prefetches_used);
    ("core.readahead.wasted", i hs.prefetches_wasted);
  ]

let tally_counters t : counters =
  let i = float_of_int in
  [
    ("lfs.cleaner.segments_cleaned", i t.segments_cleaned);
    ("policy.automigrate.files", i t.policy_files);
    ("obs.decision.records", i t.decision_records);
    ("obs.health.ticks", i t.health_ticks);
    ("obs.snapshot.samples", i t.snapshot_samples);
  ]

(* Ledger blame per wait category, summed over request classes. *)
let ledger () : counters =
  List.map
    (fun cat ->
      let total =
        List.fold_left
          (fun acc (cs : Sim.Ledger.class_summary) ->
            List.fold_left
              (fun acc (c : Sim.Ledger.cat_stat) -> if c.cat = cat then acc +. c.total_s else acc)
              acc cs.by_category)
          0.0 (Sim.Ledger.summary ())
      in
      ("core.ledger." ^ Sim.Ledger.category_name cat ^ "_s", total))
    Sim.Ledger.categories

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Span totals at each boundary the benchmark records, named
   [layer.name.*], as counters so that worlds add up. *)
let spans =
  [
    ("device", "disk");
    ("lfs", "read");
    ("lfs", "write");
    ("lfs", "checkpoint");
    ("lfs", "cleaner");
    ("core", "migrator");
    ("core", "hl.read");
    ("core", "hl.write");
    ("policy", "automigrate");
  ]

let span_counters t : counters =
  List.concat_map
    (fun (layer, name) ->
      let a = Span.aggregate t ~layer name in
      let key field = String.concat "." [ layer; name; field ] in
      [
        (key "calls", float_of_int a.Span.calls);
        (key "host_s", a.host_s);
        (key "self_s", a.self_s);
        (key "sim_s", a.sim_s);
        (key "minor_words", a.minor_words);
        (key "major_words", a.major_words);
      ])
    spans

(* The per-layer metrics, from the summed counters of a run's worlds. *)
let metrics (c : counters) =
  let get k = List.assoc k c in
  let unit_of name =
    if String.ends_with ~suffix:"_s" name then "s"
    else if String.ends_with ~suffix:"_words" name then "words"
    else if String.ends_with ~suffix:"bytes_read" name || String.ends_with ~suffix:"bytes_written" name
    then "bytes"
    else "count"
  in
  let counter name = Metric.make name (unit_of name) (get name) in
  let ratio_metric name num den = Metric.make name "ratio" (ratio num den) in
  let io = get "core.service.io_disk_s" +. get "core.service.io_tertiary_s" in
  let used = get "core.readahead.used" and wasted = get "core.readahead.wasted" in
  List.map counter
    [
      "sim.events";
      "sim.blocked_end";
      "device.disk.calls";
      "device.disk.blocks_read";
      "device.disk.blocks_written";
      "device.disk.host_s";
      "device.disk.minor_words";
      "device.disk.major_words";
      "device.disk.busy_s";
      "device.disk.seek_s";
      "device.jukebox.swaps";
      "device.jukebox.swap_s";
      "device.jukebox.bytes_read";
      "device.jukebox.bytes_written";
      "footprint.busy_s";
      "footprint.bytes_read";
      "footprint.bytes_written";
      "lfs.read.calls";
      "lfs.read.host_s";
      "lfs.read.self_s";
      "lfs.write.calls";
      "lfs.write.host_s";
      "lfs.write.self_s";
      "lfs.checkpoint.calls";
      "lfs.checkpoint.host_s";
      "lfs.segments_written";
      "lfs.partials_written";
    ]
  @ [
      ratio_metric "lfs.bcache.hit_rate" (get "lfs.bcache.hits")
        (get "lfs.bcache.hits" +. get "lfs.bcache.misses");
    ]
  @ List.map counter
      [
        "lfs.cleaner.calls";
        "lfs.cleaner.host_s";
        "lfs.cleaner.segments_cleaned";
        "core.migrator.calls";
        "core.migrator.host_s";
        "core.migrator.sim_s";
        "core.migrator.segments_staged";
        "core.hl.read.calls";
        "core.hl.read.host_s";
        "core.hl.read.self_s";
        "core.hl.write.calls";
        "core.hl.write.host_s";
        "core.hl.write.self_s";
        "core.service.demand_fetches";
        "core.service.writeouts";
        "core.service.queue_s";
        "core.service.io_disk_s";
        "core.service.io_tertiary_s";
      ]
  @ [
      ratio_metric "core.service.io_overlap" (get "io_overlap_weighted") io;
      ratio_metric "core.service.writeout_overlap" (get "writeout_overlap_weighted") io;
    ]
  @ List.map counter
      [
        "core.service.retries";
        "core.service.failures";
        "core.seg_cache.hits";
        "core.seg_cache.misses";
        "core.seg_cache.evictions";
      ]
  @ [
      ratio_metric "core.seg_cache.hit_rate" (get "core.seg_cache.hits")
        (get "core.seg_cache.hits" +. get "core.seg_cache.misses");
    ]
  @ List.map counter [ "core.readahead.used"; "core.readahead.wasted" ]
  @ [
      (* 1.0 when no prefetch outcome exists, as [Hl.stats] reports it *)
      Metric.make "core.readahead.accuracy" "ratio"
        (if used +. wasted = 0.0 then 1.0 else used /. (used +. wasted));
    ]
  @ List.map
      (fun cat -> counter ("core.ledger." ^ Sim.Ledger.category_name cat ^ "_s"))
      Sim.Ledger.categories
  @ List.map counter
      [
        "policy.automigrate.calls";
        "policy.automigrate.host_s";
        "policy.automigrate.files";
        "obs.decision.records";
        "obs.health.ticks";
        "obs.snapshot.samples";
      ]
