(* The three workloads and the harness that runs one of them once: build
   the world, mkfs and populate (set-up), run the timed phase from the
   closed-loop client, then check the end state outside the timing. *)

open Highlight
open Lfs
module Large_object = Workload.Large_object
module Trace = Workload.Trace

(* The paper's testbed parameters (§7) with the CPU model the bench
   harness calibrated against Table 2. *)
let cpu = { Param.syscall = 0.0004; per_block = 0.0007; copy_rate = 3.2 *. 1024.0 *. 1024.0 }

let paper_prm =
  {
    Param.block_size = 4096;
    seg_blocks = 256;
    nsegs = 832;
    max_inodes = 4096;
    bcache_blocks = 800;
    clean_reserve = 8;
    cpu;
  }

(* Clients move data in 64 KB calls. *)
let piece = 64 * 1024

(* RZ57 and a two-drive HP 6300 MO changer on one SCSI bus. *)
let devices ~nvolumes ~segs_per_volume engine =
  let bus = Device.Scsi_bus.create engine "scsi0" in
  let disk = Device.Disk.create engine ~bus Device.Disk.rz57 ~name:"rz57" in
  let jukebox =
    Device.Jukebox.create engine ~bus ~drives:2 ~nvolumes ~vol_capacity:(segs_per_volume * 256)
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "hp6300"
  in
  let fp = Footprint.create ~seg_blocks:256 ~segs_per_volume [ jukebox ] in
  { Layers.disk; jukebox; fp }

type env = {
  engine : Sim.Engine.t;
  hl : Hl.t;
  fs : Fs.t;
  client : Client.t;
  tally : Layers.tally;
}

type outcome = {
  setup_s : float;
  wall_s : float;
  minor_words : float;
  major_words : float;
  top_heap_mb : float;
  reads : float array;  (** simulated seconds per read call *)
  writes : float array;  (** simulated seconds per write call *)
  attempted : int;
  failed : int;
  problems : string list;  (** failed calls, then end-state violations *)
  user_bytes : int;  (** written by the client in the timed phase *)
  migrated_bytes : int;
  migrate_sim_s : float;
  counters : Layers.counters;  (** timed-phase deltas, spans included when traced *)
}

(* Several independent worlds of one run, as one outcome. *)
let combine = function
  | [] -> invalid_arg "Workloads.combine"
  | first :: _ as os ->
      let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 os in
      let isum f = List.fold_left (fun acc o -> acc + f o) 0 os in
      {
        setup_s = sum (fun o -> o.setup_s);
        wall_s = sum (fun o -> o.wall_s);
        minor_words = sum (fun o -> o.minor_words);
        major_words = sum (fun o -> o.major_words);
        top_heap_mb = List.fold_left (fun acc o -> Float.max acc o.top_heap_mb) 0.0 os;
        reads = Array.concat (List.map (fun o -> o.reads) os);
        writes = Array.concat (List.map (fun o -> o.writes) os);
        attempted = isum (fun o -> o.attempted);
        failed = isum (fun o -> o.failed);
        problems = List.concat_map (fun o -> o.problems) os;
        user_bytes = isum (fun o -> o.user_bytes);
        migrated_bytes = isum (fun o -> o.migrated_bytes);
        migrate_sim_s = sum (fun o -> o.migrate_sim_s);
        counters =
          List.fold_left (fun acc o -> Layers.add acc o.counters) first.counters (List.tl os);
      }

(* Disk plus tertiary bytes written per byte the client wrote. *)
let write_amp o =
  let get k = List.assoc k o.counters in
  ((get "device.disk.blocks_written" *. float_of_int paper_prm.Param.block_size)
  +. get "device.jukebox.bytes_written")
  /. float_of_int (max 1 o.user_bytes)

(* Seeded random bytes that write payloads are cut from. *)
let pattern ~seed len =
  let rng = Util.Rng.create seed in
  let b = Bytes.create len in
  for i = 0 to (len / 8) - 1 do
    Bytes.set_int64_ne b (i * 8) (Util.Rng.bits64 rng)
  done;
  b

(* [len] bytes of [pattern] from [src], in a reused buffer when the
   length is a whole piece (the file system copies what it is given). *)
let payload ~scratch pattern ~src len =
  let buf = if len = Bytes.length scratch then scratch else Bytes.create len in
  Bytes.blit pattern src buf 0 len;
  buf

(* Reads every modelled file back whole and compares. *)
let sweep (env : env) =
  let model = env.client.Client.model in
  Model.paths model
  |> List.filter_map (fun path ->
         let size = Model.size model path in
         match Dir.namei env.fs path with
         | exception Not_found -> Some ("missing " ^ path)
         | ino ->
             let got = File.read env.fs ino ~off:0 ~len:size in
             if Model.matches model path ~off:0 ~len:size got && ino.Inode.size = size then None
             else Some ("final content mismatch: " ^ path))

(* Runs one world: set-up builds the devices, mkfs and [populate env],
   which returns the timed body; the timed phase runs it and ends in a
   checkpoint; the end state is checked outside the timing. *)
let harness ~traced ~devices:mk_devices ~mkfs ~populate =
  let t_setup = Metric.now () in
  let engine = Sim.Engine.create () in
  let devs = mk_devices engine in
  let tally = Layers.tally () in
  let client = Client.create engine in
  let result = ref None in
  Sim.Engine.spawn engine ~name:"bench-main" (fun () ->
      let dev = Dev.of_disk devs.Layers.disk in
      let dev = if traced then Devwrap.wrap dev else dev in
      let hl = mkfs engine dev devs.Layers.fp in
      let env = { engine; hl; fs = Hl.fs hl; client; tally } in
      let timed = populate env in
      let setup_s = Metric.now () -. t_setup in
      Client.clear_samples client;
      Hl.reset_stats hl;
      let before = Layers.snap devs env.fs in
      let events0 = Sim.Engine.events_retired engine in
      let written0 = client.Client.bytes_written in
      let spans = if traced then Some (Span.start engine) else None in
      if traced then Sim.Ledger.install engine;
      let minor0, major0 = Span.gc_words () in
      let t0 = Metric.now () in
      timed ();
      Span.with_ ~layer:"lfs" "checkpoint" (fun () -> Fs.checkpoint env.fs);
      let wall_s = Metric.now () -. t0 in
      let minor1, major1 = Span.gc_words () in
      let top_heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
      in
      Span.stop ();
      let hs = Hl.stats hl in
      let counters =
        (("sim.events", float_of_int (Sim.Engine.events_retired engine - events0))
        :: Layers.diff (Layers.snap devs env.fs) before)
        @ Layers.service hs @ Layers.tally_counters tally
        @ match spans with Some spans -> Layers.span_counters spans | None -> []
      in
      (* fsck may read tertiary-resident metadata, so the service stops last *)
      let checks = sweep env @ Hl.check hl @ Debug.fsck env.fs in
      Hl.shutdown_service hl;
      result :=
        Some
          (fun ~blocked_end ->
            {
              setup_s;
              wall_s;
              minor_words = minor1 -. minor0;
              major_words = major1 -. major0;
              top_heap_mb;
              reads = Metric.Samples.to_array client.Client.reads;
              writes = Metric.Samples.to_array client.Client.writes;
              attempted = client.Client.attempted;
              failed = client.Client.failed;
              problems =
                (List.rev client.Client.problems @ checks
                @
                if blocked_end = 0 then []
                else [ Printf.sprintf "%d processes blocked at end" blocked_end ]);
              user_bytes = client.Client.bytes_written - written0;
              migrated_bytes = hs.Hl.bytes_migrated;
              migrate_sim_s = tally.Layers.migrate_sim_s;
              counters =
                (("sim.blocked_end", float_of_int blocked_end) :: counters)
                @ if traced then Layers.ledger () else [];
            }));
  Fun.protect ~finally:Sim.Ledger.uninstall (fun () ->
      Sim.Engine.run engine;
      match !result with
      | Some finish -> finish ~blocked_end:(Sim.Engine.blocked_processes engine)
      | None ->
          failwith
            ("workload did not finish; blocked: "
            ^ String.concat " " (Sim.Engine.blocked_process_names engine)))

(* ---------- archive ---------- *)

(* Independent archives per run, each replaying its own trace until it
   has issued [archive_calls] client calls, so every seed does the same
   amount of client work and no one trace's luck dominates a run. *)
let archive_worlds = 8
let archive_calls = 1000

let archive ~seed ~traced =
  let prm = { paper_prm with Param.nsegs = 32; max_inodes = 1024 } in
  let nsegs = prm.Param.nsegs in
  (* the leading creates of a trace populate its archive; the rest is
     timed *)
  let rec split acc = function
    | (Trace.Create _ | Trace.Advance _) as e :: rest -> split (e :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let traces =
    Array.init archive_worlds (fun w ->
        split []
          (Trace.generate ~seed:((seed * archive_worlds) + w)
             {
               Trace.default with
               Trace.events = 2000;
               nfiles = 96;
               mean_file_bytes = 192 * 1024;
             }))
  in
  let pattern = pattern ~seed (8 * 1024 * 1024) in
  let stp = { Policy.Stp.time_exp = 1.0; size_exp = 1.0; min_idle = 30.0 } in
  let policy = Policy.Automigrate.stp_policy stp in
  let policy_id = Policy.Stp.policy_id stp in
  let slos = "fetch_p99: demand_fetch.p99 < 600s\nerr: error_rate < 1%\n" in
  let world w =
    (* each world starts with the previous one's garbage collected *)
    Gc.full_major ();
    harness ~traced
      ~devices:(devices ~nvolumes:16 ~segs_per_volume:24)
      ~mkfs:(fun engine disk fp -> Hl.mkfs engine prm ~disk ~fp ~cache_segs:6 ())
      ~populate:(fun env ->
        let populate_events, timed_events = traces.(w) in
        let st = Hl.state env.hl in
        let c = env.client and t = env.tally in
        let automigrate ~low_water =
          Span.with_ ~layer:"policy" "automigrate" (fun () ->
              let t0 = Sim.Engine.now env.engine in
              (try
                 t.policy_files <-
                   t.policy_files
                   + Policy.Automigrate.run_once ~policy_id st ~policy ~low_water
                       ~high_water:(nsegs * 3 / 4)
               with Fs.No_space | State.Tertiary_full -> ());
              t.migrate_sim_s <- t.migrate_sim_s +. Sim.Engine.now env.engine -. t0)
        in
        let clean () =
          Span.with_ ~layer:"lfs" "cleaner" (fun () ->
              try
                let r = Cleaner.clean_until env.fs ~target_clean:(nsegs / 2) () in
                t.segments_cleaned <- t.segments_cleaned + r.Cleaner.segments_cleaned
              with Fs.No_space -> ())
        in
        (* on No_space: migrate cold data out, retry; then clean, retry *)
        let recover = [ (fun () -> automigrate ~low_water:(nsegs + 1)); clean ] in
        let rng = Util.Rng.create ((seed * archive_worlds) + w + 1) in
        let scratch = Bytes.create piece in
        let writes = ref 0 in
        let last_call = ref max_int in
        let spend () = if c.Client.attempted >= !last_call then raise_notrace Exit in
        let write path ~off len =
          let src = Util.Rng.int rng (Bytes.length pattern - len + 1) in
          let p = ref 0 in
          while !p < len do
            spend ();
            let n = min piece (len - !p) in
            let data = payload ~scratch pattern ~src:(src + !p) n in
            let off = off + !p in
            Client.write c path ~off data ~recover (fun () ->
                Span.with_ ~layer:"core" "hl.write" (fun () -> Hl.write_file env.hl path ~off data));
            p := !p + n
          done;
          incr writes;
          (* the continuously-running migrator wakes between bursts *)
          if !writes mod 5 = 0 then automigrate ~low_water:(nsegs / 2)
        in
        let read path ~off ~len =
          let p = ref 0 in
          while !p < len do
            spend ();
            let n = min piece (len - !p) in
            let off = off + !p in
            Client.read c path ~off ~len:n (fun () ->
                Span.with_ ~layer:"core" "hl.read" (fun () -> Hl.read_file env.hl path ~off ~len:n ()));
            p := !p + n
          done
        in
        let replay = function
          | Trace.Create { path; bytes } -> write path ~off:0 bytes
          | Trace.Overwrite { path; off; len } -> write path ~off len
          | Trace.Read { path; off; len } -> read path ~off ~len
          | Trace.Delete { path } ->
              Client.op c ("delete " ^ path) (fun () -> Dir.unlink env.fs path);
              Model.delete c.Client.model path
          | Trace.Advance dt -> Sim.Engine.delay dt
        in
        ignore (Dir.mkdir env.fs "/archive");
        List.iter replay populate_events;
        fun () ->
          let metrics = Hl.metrics env.hl in
          Obs.Decision.install ~metrics ();
          Obs.Decision.add_sink (fun _ -> t.decision_records <- t.decision_records + 1);
          let health =
            match Obs.Health.parse slos with
            | Ok objectives -> Obs.Health.install ~quiet:true ~metrics env.engine objectives
            | Error e -> failwith ("archive SLOs: " ^ e)
          in
          let sampler = Sim.Snapshot.start env.engine ~metrics ~period:600.0 () in
          Fun.protect
            ~finally:(fun () ->
              Obs.Health.stop health;
              Sim.Snapshot.stop sampler;
              Obs.Decision.uninstall ();
              t.health_ticks <- t.health_ticks + Obs.Health.ticks health;
              t.snapshot_samples <-
                t.snapshot_samples + Sim.Snapshot.length sampler + Sim.Snapshot.evicted sampler)
            (fun () ->
              last_call := c.Client.attempted + archive_calls;
              try
                List.iter replay timed_events;
                failwith "archive trace ended before its call budget"
              with Exit -> ()))
  in
  combine (List.init archive_worlds world)

(* ---------- large_object ---------- *)

let frames = 12500 (* 51.2 MB of 4 KB frames *)
let frame_bytes = 4096

let large_object ~seed ~traced =
  let path = "/object" in
  harness ~traced
    ~devices:(devices ~nvolumes:32 ~segs_per_volume:40)
    ~mkfs:(fun engine disk fp -> Hl.mkfs engine paper_prm ~disk ~fp ())
    ~populate:(fun env ->
      let c = env.client and fs = env.fs in
      let ops =
        {
          Large_object.fs_name = "HighLight";
          create = (fun p -> Client.op c ("create " ^ p) (fun () -> ignore (Dir.create_file fs p)));
          write =
            (fun p ~off data ->
              let ino = Dir.namei fs p in
              Client.write c p ~off data (fun () ->
                  Span.with_ ~layer:"lfs" "write" (fun () -> File.write fs ino ~off data)));
          read =
            (fun p ~off ~len ->
              let ino = Dir.namei fs p in
              let got = ref Bytes.empty in
              Client.read c p ~off ~len (fun () ->
                  got := Span.with_ ~layer:"lfs" "read" (fun () -> File.read fs ino ~off ~len);
                  !got);
              !got);
          flush_caches = (fun () -> Bcache.invalidate_clean (Fs.bcache fs));
          sync = (fun () -> Fs.flush fs);
        }
      in
      Large_object.setup env.engine ops ~frames ~frame_bytes path;
      fun () ->
        ignore (Large_object.run env.engine ops ~frames ~frame_bytes ~seed path);
        if not (Large_object.verify ops ~frames ~frame_bytes path) then
          Client.fail c "Large_object.verify found a corrupted frame")

(* ---------- migrate_fetch ---------- *)

let mf_files = 64
let mf_file_bytes = 1024 * 1024

let migrate_fetch ~seed ~traced =
  let paths = List.init mf_files (Printf.sprintf "/mf/f%03d") in
  let pattern = pattern ~seed (2 * mf_file_bytes) in
  harness ~traced
    ~devices:(devices ~nvolumes:32 ~segs_per_volume:40)
    ~mkfs:(fun engine disk fp -> Hl.mkfs engine paper_prm ~disk ~fp ())
    ~populate:(fun env ->
      let c = env.client and fs = env.fs in
      ignore (Dir.mkdir fs "/mf");
      ignore (Hl.set_prefetch_adaptive env.hl ());
      let rng = Util.Rng.create (seed + 1) in
      let scratch = Bytes.create piece in
      List.iter
        (fun path ->
          Client.op c ("create " ^ path) (fun () -> ignore (Dir.create_file fs path));
          let ino = Dir.namei fs path in
          let src = Util.Rng.int rng (Bytes.length pattern - mf_file_bytes + 1) in
          for k = 0 to (mf_file_bytes / piece) - 1 do
            let off = k * piece in
            let data = payload ~scratch pattern ~src:(src + off) piece in
            Client.write c path ~off data (fun () ->
                Span.with_ ~layer:"lfs" "write" (fun () -> File.write fs ino ~off data))
          done)
        paths;
      fun () ->
        Client.op c "migrate" (fun () ->
            Span.with_ ~layer:"core" "migrator" (fun () ->
                let t0 = Sim.Engine.now env.engine in
                ignore (Migrator.migrate_paths (Hl.state env.hl) paths);
                env.tally.migrate_sim_s <- Sim.Engine.now env.engine -. t0));
        Client.op c "eject" (fun () -> Hl.eject_tertiary_copies env.hl ~paths);
        for _pass = 1 to 2 do
          List.iter
            (fun path ->
              let ino = Dir.namei fs path in
              for k = 0 to (mf_file_bytes / piece) - 1 do
                let off = k * piece in
                Client.read c path ~off ~len:piece (fun () ->
                    Span.with_ ~layer:"lfs" "read" (fun () -> File.read fs ino ~off ~len:piece))
              done)
            paths
        done)

type t = { name : string; run : seed:int -> traced:bool -> outcome }

let all =
  [
    { name = "archive"; run = archive };
    { name = "large_object"; run = large_object };
    { name = "migrate_fetch"; run = migrate_fetch };
  ]
