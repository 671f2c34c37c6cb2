(* One run directory: every recording plane of a simulated run, installed,
   stopped and written in the one order that is correct. *)

let snapshot_period = 60.0
let decision_window = 1800.0

type host = {
  cpu_s : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(* [Gc.minor_words ()], not [quick_stat]'s field: on OCaml 5 the latter
   advances only at minor collections, so a run that allocates less than
   one minor heap reads 0. *)
let host_now () =
  let g = Gc.quick_stat () in
  {
    cpu_s = Sys.time ();
    minor_words = Gc.minor_words ();
    major_words = g.Gc.major_words;
    minor_collections = g.Gc.minor_collections;
    major_collections = g.Gc.major_collections;
  }

type t = {
  dir : string;
  engine : Sim.Engine.t;
  slo : Health.objective list;
  shadow_specs : Shadow.spec list;
  host0 : host;
  tracer : Sim.Trace.t;
  mutable metrics : Sim.Metrics.t option;
  mutable health : Health.t option;
  mutable flight : Sim.Flight.t option;
  mutable shadows : Shadow.t option;
  mutable sampler : Sim.Snapshot.t option;
  mutable files : string list; (* newest first *)
}

let write t file contents =
  Util.Misc.write_file (Filename.concat t.dir file) contents;
  t.files <- file :: t.files

let start ?(slo = []) ?(shadows = []) ~dir engine =
  Util.Misc.mkdir_p dir;
  let host0 = host_now () in
  let tracer = Sim.Trace.start engine in
  {
    dir;
    engine;
    slo;
    shadow_specs = shadows;
    host0;
    tracer;
    metrics = None;
    health = None;
    flight = None;
    shadows = None;
    sampler = None;
    files = [];
  }

let attach t ~metrics =
  t.metrics <- Some metrics;
  Sim.Ledger.install ~metrics t.engine;
  (* the flight recorder shares the full tracer *)
  if t.slo <> [] then begin
    let flight = Sim.Flight.start ~dir:(Filename.concat t.dir "blackbox") t.engine in
    t.flight <- Some flight;
    t.health <- Some (Health.install ~flight ~metrics t.engine t.slo)
  end;
  Sim.Trace.attach_metrics t.tracer metrics;
  Decision.install ~window:decision_window ~metrics ();
  if t.shadow_specs <> [] then begin
    let sh = Shadow.create t.shadow_specs in
    Shadow.attach sh;
    t.shadows <- Some sh
  end;
  t.sampler <- Some (Sim.Snapshot.start t.engine ~metrics ~period:snapshot_period ())

let health t = t.health
let shadows t = t.shadows

(* Draining the queues is no policy decision, so the decision log closes
   first; health and snapshots take their closing evaluation after the
   shutdown, at the run's final virtual time. *)
let stop t ~shutdown =
  if Option.is_some t.metrics then begin
    write t "decisions.ndjson" (Decision.to_ndjson ());
    Decision.uninstall ()
  end;
  shutdown ();
  Option.iter Health.stop t.health;
  Option.iter Sim.Flight.stop t.flight;
  Option.iter Sim.Snapshot.stop t.sampler;
  Sim.Trace.stop ();
  write t "trace.json" (Sim.Trace.export t.tracer);
  if Sim.Trace.dropped t.tracer > 0 then
    Printf.eprintf "warning: trace buffer overflowed, %d event(s) dropped\n"
      (Sim.Trace.dropped t.tracer);
  Option.iter (fun m -> write t "metrics.json" (Sim.Metrics.to_json m)) t.metrics

let json_strings l =
  "[" ^ String.concat ", " (List.map (fun s -> "\"" ^ Util.Misc.json_escape s ^ "\"") l) ^ "]"

(* Ledgers close after the main process exits (an in-flight transfer
   finishes on its own sim time), so the profile waits for the drain. *)
let finish t =
  let h1 = host_now () and h0 = t.host0 in
  let host =
    {
      cpu_s = h1.cpu_s -. h0.cpu_s;
      minor_words = h1.minor_words -. h0.minor_words;
      major_words = h1.major_words -. h0.major_words;
      minor_collections = h1.minor_collections - h0.minor_collections;
      major_collections = h1.major_collections - h0.major_collections;
    }
  in
  if Option.is_some t.metrics then begin
    write t "profile.json" (Sim.Ledger.to_json ());
    Sim.Ledger.uninstall ()
  end;
  Option.iter (fun s -> write t "snapshots.csv" (Sim.Snapshot.to_csv s)) t.sampler;
  write t "host.json"
    (Printf.sprintf
       "{\n  \"schema\": \"highlight-host/v1\",\n  \"cpu_s\": %.6f,\n  \"minor_words\": %.0f,\n\
       \  \"major_words\": %.0f,\n  \"minor_collections\": %d,\n  \"major_collections\": %d\n}\n"
       host.cpu_s host.minor_words host.major_words host.minor_collections host.major_collections);
  let bundles =
    Option.fold ~none:[] t.flight ~some:(fun fl ->
        List.map (fun p -> Filename.concat "blackbox" (Filename.basename p)) (Sim.Flight.dumps fl))
  in
  let events = Sim.Engine.events_retired t.engine and sim_s = Sim.Engine.now t.engine in
  let files = List.rev_append t.files (bundles @ [ "manifest.json" ]) in
  Util.Misc.write_file (Filename.concat t.dir "manifest.json")
    (Printf.sprintf
       "{\n  \"schema\": \"highlight-run/v1\",\n  \"argv\": %s,\n  \"sim_s\": %.6f,\n\
       \  \"events_retired\": %d,\n  \"files\": %s\n}\n"
       (json_strings (Array.to_list Sys.argv)) sim_s events (json_strings files));
  Printf.printf "recorded %s: %s\n" t.dir (String.concat " " files);
  let per_cpu x = if host.cpu_s > 0.0 then x /. host.cpu_s else 0.0 in
  Printf.printf "gc-stats: %d events in %.3fs cpu (%.0f events/sec; %.1f sim-s per cpu-s)\n"
    events host.cpu_s
    (per_cpu (float_of_int events))
    (per_cpu sim_s);
  Printf.printf
    "gc-stats: minor words %.3e (%.1f/event)   major words %.3e   collections %d minor / %d \
     major\n"
    host.minor_words
    (if events > 0 then host.minor_words /. float_of_int events else 0.0)
    host.major_words host.minor_collections host.major_collections;
  host
