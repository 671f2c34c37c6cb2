(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (USENIX '93 / UCB MS report), plus the ablations DESIGN.md
   calls out and Bechamel micro-benchmarks of the implementation.

     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- --only table2 # one experiment
     dune exec bench/main.exe -- --list        # targets
     dune exec bench/main.exe -- --out DIR     # + DIR/bench.json, DIR/trace.json *)

let targets : (string * string * (unit -> unit)) list =
  [
    ("table1", "partial-segment summary layout + checksum demo", Table1.run);
    ("table2", "large-object performance: FFS / LFS / HighLight", Table2.run);
    ("table3", "access delays incl. demand fetch from MO", Table3.run);
    ("table4", "migration elapsed-time breakdown", Table4_6.run);
    ("table5", "raw device calibration", Table5.run);
    ("table6", "(runs with table4: same instrumented migration)", ignore);
    ("fig1", "LFS on-disk layout (live dump)", Figs.run_fig1);
    ("fig2", "storage hierarchy (live dump)", Figs.run_fig2);
    ("fig3", "HighLight layout with cached tertiary segment", Figs.run_fig3);
    ("fig4", "block address allocation map", Figs.run_fig4);
    ("fig5", "layered architecture with live counters", Figs.run_fig5);
    ("pipeline", "serial vs pipelined service/I-O with 2 drives + prefetch", Pipeline.run);
    ("streaming", "first-block wakeup vs blocking fetch + adaptive readahead", Streaming.run);
    ("writeout", "streaming vs blocking segment copy-out + idle readahead", Writeout.run);
    ("faulty", "pipeline scenario under media errors + a dead drive", Faulty.run);
    ("ablate-policy", "STP exponents x cache eviction over a Zipf trace", Ablations.run_policy);
    ("ablate-staging", "immediate vs delayed copy-out (paper 5.4)", Ablations.run_staging);
    ("ablate-segsize", "segment size sweep", Ablations.run_segsize);
    ("ablate-prefetch", "namespace-unit prefetch (paper 5.3)", Ablations.run_prefetch);
    ("ablate-rearrange", "tertiary rearrangement on co-access (paper 5.4)", Ablations.run_rearrange);
    ("bakeoff", "HighLight vs Jaquith+FFS on the same archival trace", Bakeoff.run);
    ("micro", "Bechamel micro-benchmarks of hot paths", Micro.run);
    ("engine", "events/sec + minor-words/event vs the pre-PR engine", Engine_bench.run);
  ]

(* One record per executed target: simulated seconds consumed by its
   runs, and host wall-clock seconds. Written to bench.json by --out. *)
let timings : (string * float * float) list ref = ref []

let run_timed (name, _, run) =
  ignore (Config.take_sim_elapsed ());
  let w0 = Unix.gettimeofday () in
  run ();
  let wall = Unix.gettimeofday () -. w0 in
  timings := (name, Config.take_sim_elapsed (), wall) :: !timings

let write_json file =
  Out_channel.with_open_text file @@ fun oc ->
  Printf.fprintf oc "{\n  \"schema\": \"highlight-bench/v1\",\n";
  (* demand-fetch latency percentiles, folded across every target that
     harvested its instance's registry (see Config.harvest_metrics) *)
  let n, p50, p95, p99 =
    match Sim.Metrics.find_histogram Config.bench_metrics "service.demand_fetch_latency_s" with
    | Some h when Sim.Metrics.observations h > 0 ->
        ( Sim.Metrics.observations h,
          Sim.Metrics.percentile h 0.5,
          Sim.Metrics.percentile h 0.95,
          Sim.Metrics.percentile h 0.99 )
    | _ -> (0, 0.0, 0.0, 0.0)
  in
  Printf.fprintf oc
    "  \"demand_fetch_latency_s\": { \"count\": %d, \"p50\": %.6f, \"p95\": %.6f, \"p99\": \
     %.6f },\n"
    n p50 p95 p99;
  (* per-category wait blame of every run that installed a ledger
     (pipeline/streaming modes), seconds per request class *)
  Printf.fprintf oc "  \"attribution\": {\n";
  let attrs = !Config.attributions in
  List.iteri
    (fun i (label, classes) ->
      Printf.fprintf oc "    %S: {" label;
      List.iteri
        (fun j (cls, cats) ->
          if j > 0 then output_string oc ",";
          Printf.fprintf oc " %S: { %s }" cls
            (String.concat ", "
               (List.map (fun (cat, v) -> Printf.sprintf "%S: %.6f" cat v) cats)))
        classes;
      Printf.fprintf oc " }%s\n" (if i = List.length attrs - 1 then "" else ","))
    attrs;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"targets\": {\n";
  let rows = List.rev !timings in
  List.iteri
    (fun i (name, sim, wall) ->
      Printf.fprintf oc "    %S: { \"sim_elapsed_s\": %.3f, \"wall_s\": %.3f }%s\n" name sim
        wall
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  }\n}\n"

let run_all () =
  print_endline "HighLight reproduction: regenerating every table and figure.";
  print_endline "(simulated 1993 testbed; see EXPERIMENTS.md for the calibration notes)";
  List.iter
    (fun ((name, _, _) as t) ->
      if name <> "table6" then begin
        Printf.printf "\n### %s\n%!" name;
        run_timed t
      end)
    targets

let run_one name =
  match List.find_opt (fun (n, _, _) -> n = name) targets with
  | Some t -> run_timed t
  | None ->
      Printf.eprintf "unknown target %s; try --list\n" name;
      exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* peel off --out DIR wherever it appears *)
  let rec extract acc = function
    | "--out" :: dir :: rest -> (Some dir, List.rev_append acc rest)
    | a :: rest -> extract (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let out, args = extract [] args in
  (* create it now so a bad path fails before the benches run, not after *)
  Option.iter
    (fun dir ->
      Util.Misc.mkdir_p dir;
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "cannot create %s\n" dir;
        exit 1
      end;
      Config.trace_requested := true)
    out;
  (match args with
  | [ "--list" ] ->
      List.iter (fun (name, descr, _) -> Printf.printf "%-16s %s\n" name descr) targets
  | [ "--only"; name ] -> run_one name
  | [] -> run_all ()
  | _ ->
      prerr_endline "usage: main.exe [--list | --only <target>] [--out <dir>]";
      exit 1);
  Option.iter
    (fun dir ->
      let json = Filename.concat dir "bench.json" and trace = Filename.concat dir "trace.json" in
      write_json json;
      Printf.printf "\nwrote %s\n" json;
      match !Config.trace_acc with
      | Some tr ->
          Sim.Trace.write_file tr trace;
          Printf.printf "wrote %s (%d trace events)\n" trace (Sim.Trace.event_count tr)
      | None -> prerr_endline "no trace captured (no target ran a simulation)")
    out
