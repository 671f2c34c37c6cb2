(* The repository benchmark: one workload per invocation, run repeatedly
   for the requested host seconds, each repetition on a fresh world with
   the same seed.

     perfbench --workload archive|large_object|migrate_fetch --seed N
               --seconds S --trace 0|1
     perfbench --self-test

   Untraced runs report the end-to-end metrics: host times and GC words
   are medians over the repetitions, the heap high-water mark is the
   first repetition's. The simulated results (latency percentiles, write
   amplification, error rate, migration rate) are printed for reading;
   every repetition must reproduce them exactly. Traced runs alternate
   untraced and traced repetitions and report the per-layer metrics of
   the first traced one, plus the tracing overhead. The last line of
   output is a JSON object; the exit code is nonzero when any operation
   failed or any check did not hold. *)

let usage =
  "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
  \       perfbench --self-test\n\
   workloads: archive large_object migrate_fetch"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let time_limit_s = 170

(* Traced runs write their spans here, under the working directory. *)
let spans_dir = ".perfbench"

type args = { workload : string; seed : int; seconds : float; trace : bool; self_test : bool }

let parse_args argv =
  let rec go a = function
    | [] -> a
    | "--self-test" :: rest -> go { a with self_test = true } rest
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some s -> go { a with seed = s } rest | None -> die "bad --seed %s" v)
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { a with seconds = s } rest
        | _ -> die "bad --seconds %s" v)
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | x :: _ -> die "unexpected argument %s\n%s" x usage
  in
  go { workload = ""; seed = 1; seconds = 10.0; trace = false; self_test = false } argv

(* Simulated results of a repetition; all repetitions must agree. *)
let signature (o : Workloads.outcome) = (o.reads, o.writes, Workloads.write_amp o, o.migrated_bytes)

let median_of f runs = Metric.median (List.map f runs)

(* Host time, set-up time and allocation: medians over repetitions. *)
let end_to_end (runs : Workloads.outcome list) =
  let first = List.hd runs in
  [
    Metric.make "wall_s" "s" (median_of (fun o -> o.Workloads.wall_s) runs);
    Metric.make "setup_s" "s" (median_of (fun o -> o.Workloads.setup_s) runs);
    Metric.make "minor_words" "words" (median_of (fun o -> o.Workloads.minor_words) runs);
    Metric.make "major_words" "words" (median_of (fun o -> o.Workloads.major_words) runs);
    Metric.make "top_heap_mb" "MB" first.top_heap_mb;
  ]

(* The simulated results, identical for every repetition of a seed but
   too seed-dependent to gate on (see README.md); printed, not returned. *)
let report_sim (o : Workloads.outcome) =
  let pct name samples p =
    match Metric.percentile samples p with
    | Some v -> Printf.printf "  %-18s %.6g s (%d samples)\n" name v (Array.length samples)
    | None -> Printf.printf "  %-18s n/a (%d samples)\n" name (Array.length samples)
  in
  pct "read_p50_s" o.reads 50;
  pct "read_p99_s" o.reads 99;
  pct "write_p50_s" o.writes 50;
  pct "write_p99_s" o.writes 99;
  Printf.printf "  %-18s %.6g ratio\n" "write_amp" (Workloads.write_amp o);
  Printf.printf "  %-18s %.6g ratio (%d failed of %d attempted)\n" "error_rate"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  if o.migrated_bytes > 0 && o.migrate_sim_s > 0.0 then
    Printf.printf "  %-18s %.6g MB/s (%.1f MB in %.1f simulated s of migrator calls)\n"
      "migrate_mb_per_s"
      (float_of_int o.migrated_bytes /. 1048576.0 /. o.migrate_sim_s)
      (float_of_int o.migrated_bytes /. 1048576.0)
      o.migrate_sim_s
  else Printf.printf "  %-18s n/a (nothing migrated)\n" "migrate_mb_per_s"

let run_benchmark (w : Workloads.t) a =
  let start = Metric.now () in
  let plain = ref [] and traced = ref [] in
  let once ~traced:tr =
    (* start every repetition from an empty minor heap and no garbage *)
    Gc.full_major ();
    w.run ~seed:a.seed ~traced:tr
  in
  let continue () = Metric.now () -. start < a.seconds in
  let rec loop () =
    plain := once ~traced:false :: !plain;
    if a.trace then begin
      traced := once ~traced:true :: !traced;
      (* the first traced repetition's spans are kept on disk *)
      if List.length !traced = 1 then begin
        if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
        let path = Filename.concat spans_dir (w.name ^ ".spans.ndjson") in
        Printf.printf "spans: %d -> %s\n" (Span.write_finished path) path
      end;
      Span.finished := []
    end;
    if continue () then loop ()
  in
  loop ();
  let plain = List.rev !plain and traced = List.rev !traced in
  let all = plain @ traced in
  let first = List.hd plain in
  let problems =
    List.concat_map (fun (o : Workloads.outcome) -> o.problems) all
    @
    if List.for_all (fun o -> signature o = signature first) all then []
    else [ "repetitions with one seed disagree on simulated results" ]
  in
  let e2e = end_to_end plain in
  Printf.printf "perfbench %s seed %d: %d untraced + %d traced repetitions in %.1f s\n" w.name a.seed
    (List.length plain) (List.length traced)
    (Metric.now () -. start);
  List.iter (fun m -> Printf.printf "  %-18s %.6g %s\n" m.Metric.name m.Metric.value m.Metric.unit_) e2e;
  Printf.printf "  wall_s of each repetition: %s\n"
    (String.concat " " (List.map (fun (o : Workloads.outcome) -> Printf.sprintf "%.3f" o.wall_s) plain));
  report_sim first;
  let metrics =
    if not a.trace then e2e
    else begin
      let overhead =
        100.0
        *. ((median_of (fun o -> o.Workloads.wall_s) traced
            /. median_of (fun o -> o.Workloads.wall_s) plain)
           -. 1.0)
      in
      let layers =
        Layers.metrics (List.hd traced).counters @ [ Metric.make "trace.overhead_pct" "%" overhead ]
      in
      List.iter
        (fun m -> Printf.printf "  %-32s %.6g %s\n" m.Metric.name m.Metric.value m.Metric.unit_)
        layers;
      layers
    end
  in
  List.iter (fun p -> Printf.printf "FAIL: %s\n" p) problems;
  let attempted = List.fold_left (fun n (o : Workloads.outcome) -> n + o.attempted) 0 all in
  let failed = List.fold_left (fun n (o : Workloads.outcome) -> n + o.failed) 0 all in
  let correct = problems = [] && failed = 0 in
  print_endline (Metric.result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1

let () =
  let a = parse_args (List.tl (Array.to_list Sys.argv)) in
  if a.self_test then exit (if Selftest.run () then 0 else 1);
  match List.find_opt (fun (w : Workloads.t) -> w.name = a.workload) Workloads.all with
  | None -> die "unknown workload %S\n%s" a.workload usage
  | Some w ->
      (* a run that cannot finish in time fails instead of hanging *)
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle
           (fun _ ->
             prerr_endline "perfbench: run did not finish within the time limit";
             exit 3));
      ignore (Unix.alarm time_limit_s);
      if not (Selftest.run ()) then exit 1;
      run_benchmark w a
