(* Observability layer: named processes and deadlock diagnosability,
   Stats edge cases and merging, Metrics histograms (bucket boundaries,
   percentile monotonicity), Chrome-trace export (golden file), and the
   instrumented service stack end to end. *)

open Sim

let check = Alcotest.check

(* index of [sub] in [s] at or after [start], if any *)
let find_sub s sub start =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go start

let contains s sub = find_sub s sub 0 <> None

(* --- engine process names --- *)

let test_blocked_names () =
  let e = Engine.create () in
  Engine.spawn e ~name:"stuck-writer" (fun () -> Engine.suspend (fun _ -> ()));
  Engine.spawn e ~name:"stuck-reader" (fun () -> Engine.suspend (fun _ -> ()));
  Engine.spawn e (fun () -> Engine.suspend (fun _ -> ()));
  Engine.spawn e ~name:"finishes" (fun () -> Engine.delay 1.0);
  Engine.run e;
  check Alcotest.int "three stuck" 3 (Engine.blocked_processes e);
  let names = Engine.blocked_process_names e in
  check Alcotest.bool "named writer listed" true (List.mem "stuck-writer" names);
  check Alcotest.bool "named reader listed" true (List.mem "stuck-reader" names);
  check Alcotest.bool "finished process not listed" false (List.mem "finishes" names);
  (* the anonymous one still shows up, under its generated name *)
  check Alcotest.int "all three named somehow" 3 (List.length names)

let test_current_process () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.spawn e ~name:"alpha" (fun () ->
      seen := Engine.current_process e :: !seen;
      Engine.delay 1.0;
      (* the name survives across a suspend/resume boundary *)
      seen := Engine.current_process e :: !seen);
  Engine.spawn e ~name:"beta" (fun () -> seen := Engine.current_process e :: !seen);
  Engine.run e;
  check
    Alcotest.(list (option string))
    "names tracked" [ Some "alpha"; Some "beta"; Some "alpha" ] (List.rev !seen);
  check Alcotest.(option string) "nothing running after run" None (Engine.current_process e)

(* --- Stats edge cases --- *)

let test_stats_empty_and_single () =
  let s = Stats.create "edge" in
  check Alcotest.int "n=0 count" 0 (Stats.count s);
  check (Alcotest.float 1e-9) "n=0 mean" 0.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "n=0 stddev" 0.0 (Stats.stddev s);
  Stats.add s 42.0;
  check Alcotest.int "n=1 count" 1 (Stats.count s);
  check (Alcotest.float 1e-9) "n=1 mean" 42.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "n=1 stddev" 0.0 (Stats.stddev s);
  check (Alcotest.float 1e-9) "n=1 min" 42.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "n=1 max" 42.0 (Stats.max_value s)

let test_stats_absorb () =
  let a = Stats.create "a" and b = Stats.create "b" in
  List.iter (Stats.add a) [ 1.0; 2.0; 3.0 ];
  List.iter (Stats.add b) [ 10.0; 20.0 ];
  (* absorbing an empty accumulator changes nothing *)
  Stats.absorb a (Stats.create "empty");
  check Alcotest.int "absorb empty keeps n" 3 (Stats.count a);
  Stats.absorb a b;
  let direct = Stats.create "direct" in
  List.iter (Stats.add direct) [ 1.0; 2.0; 3.0; 10.0; 20.0 ];
  check Alcotest.int "merged count" (Stats.count direct) (Stats.count a);
  check (Alcotest.float 1e-9) "merged mean" (Stats.mean direct) (Stats.mean a);
  check (Alcotest.float 1e-9) "merged stddev" (Stats.stddev direct) (Stats.stddev a);
  check (Alcotest.float 1e-9) "merged min" 1.0 (Stats.min_value a);
  check (Alcotest.float 1e-9) "merged max" 20.0 (Stats.max_value a);
  (* absorbing into an empty one copies *)
  let c = Stats.create "c" in
  Stats.absorb c a;
  check (Alcotest.float 1e-9) "copy mean" (Stats.mean a) (Stats.mean c)

(* --- Metrics --- *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "hits" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check Alcotest.int "counter" 5 (Metrics.count c);
  check Alcotest.bool "find-or-create returns same" true (Metrics.counter m "hits" == c);
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.0;
  Metrics.set g 7.0;
  Metrics.set g 2.0;
  check (Alcotest.float 1e-9) "gauge last" 2.0 (Metrics.value g);
  check (Alcotest.float 1e-9) "gauge max" 7.0 (Metrics.max_value g);
  Metrics.reset m;
  check Alcotest.int "counter reset" 0 (Metrics.count c);
  check (Alcotest.float 1e-9) "gauge reset" 0.0 (Metrics.value g)

(* A histogram's sum must equal, bit for bit, the left fold a hand-kept
   float accumulator would hold: [Hl.stats] reads its times from
   histograms and may not move a digit. *)
let test_hist_sum_is_fold () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "phase_s" in
  let xs = List.init 1000 (fun i -> (0.001 *. float_of_int (i mod 37)) +. 0.0137) in
  List.iter (Metrics.observe h) xs;
  let fold = List.fold_left ( +. ) 0.0 xs in
  check Alcotest.bool
    (Printf.sprintf "hist_sum %.17g = fold %.17g" (Metrics.hist_sum h) fold)
    true
    (Int64.equal (Int64.bits_of_float (Metrics.hist_sum h)) (Int64.bits_of_float fold))

let test_bucket_boundaries () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~base:1e-6 "lat" in
  (* bucket i covers [base * 2^i, base * 2^(i+1)) *)
  check Alcotest.int "base -> bucket 0" 0 (Metrics.bucket_index h 1e-6);
  check Alcotest.int "just below 2*base -> 0" 0 (Metrics.bucket_index h 1.999e-6);
  check Alcotest.int "2*base -> bucket 1" 1 (Metrics.bucket_index h 2e-6);
  check Alcotest.int "below base -> underflow" (-1) (Metrics.bucket_index h 0.5e-6);
  check Alcotest.int "zero -> underflow" (-1) (Metrics.bucket_index h 0.0);
  for k = 0 to 40 do
    let lo = Metrics.bucket_lo h k in
    check Alcotest.int
      (Printf.sprintf "2^%d boundary exact" k)
      k (Metrics.bucket_index h lo);
    check Alcotest.int
      (Printf.sprintf "just under 2^%d boundary" k)
      (k - 1)
      (Metrics.bucket_index h (lo *. (1.0 -. 1e-12)))
  done;
  (* far beyond the last bucket still clamps, never out of range *)
  check Alcotest.int "huge clamps to last" 63 (Metrics.bucket_index h 1e30)

let test_percentiles_known () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for _ = 1 to 90 do
    Metrics.observe h 0.001
  done;
  for _ = 1 to 10 do
    Metrics.observe h 10.0
  done;
  check Alcotest.int "count" 100 (Metrics.observations h);
  let p50 = Metrics.percentile h 0.5 and p95 = Metrics.percentile h 0.95 in
  check Alcotest.bool "p50 in the fast bucket" true (p50 < 0.01);
  check Alcotest.bool "p95 in the slow bucket" true (p95 > 1.0);
  check (Alcotest.float 1e-9) "p0 is min" 0.001 (Metrics.percentile h 0.0);
  check (Alcotest.float 1e-9) "p100 is max" 10.0 (Metrics.percentile h 1.0);
  check Alcotest.bool "out of range raises" true
    (match Metrics.percentile h 1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let empty = Metrics.histogram m "empty" in
  check (Alcotest.float 1e-9) "empty percentile is 0" 0.0 (Metrics.percentile empty 0.5)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in q and within [min,max]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 60) (float_bound_inclusive 50.0))
        (list_of_size Gen.(2 -- 10) (float_bound_inclusive 1.0)))
    (fun (obs, qs) ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "p" in
      List.iter (fun x -> Metrics.observe h (Float.abs x)) obs;
      let qs = List.sort compare qs in
      let ps = List.map (Metrics.percentile h) qs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone ps
      && List.for_all
           (fun p -> p >= Metrics.hist_min h -. 1e-12 && p <= Metrics.hist_max h +. 1e-12)
           ps)

let test_histogram_merge () =
  let m = Metrics.create () in
  let a = Metrics.histogram m "a" and b = Metrics.histogram m "b" in
  List.iter (Metrics.observe a) [ 0.001; 0.002; 0.004 ];
  List.iter (Metrics.observe b) [ 0.1; 0.2 ];
  Metrics.merge_histogram a b;
  check Alcotest.int "merged count" 5 (Metrics.observations a);
  check (Alcotest.float 1e-9) "merged max" 0.2 (Metrics.hist_max a);
  let direct = Metrics.histogram m "direct" in
  List.iter (Metrics.observe direct) [ 0.001; 0.002; 0.004; 0.1; 0.2 ];
  check (Alcotest.float 1e-9) "merged mean" (Metrics.hist_mean direct) (Metrics.hist_mean a);
  List.iter
    (fun q ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "same p%g" (q *. 100.0))
        (Metrics.percentile direct q) (Metrics.percentile a q))
    [ 0.5; 0.95; 0.99 ]

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "reqs");
  Metrics.set (Metrics.gauge m "depth") 4.0;
  List.iter (Metrics.observe (Metrics.histogram m "lat")) [ 0.01; 0.02; 0.04 ];
  let js = Metrics.to_json m in
  List.iter
    (fun needle -> check Alcotest.bool (needle ^ " present") true (contains js needle))
    [ "highlight-metrics/v1"; "\"reqs\": 1"; "\"depth\""; "\"lat\""; "\"p95\"" ]

let test_metrics_json_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  (* 0.01 lands in bucket 13 of the 1e-6 base (8192e-6 <= 0.01 < 16384e-6);
     1e-9 is below base, so it counts in the "-1" underflow bucket *)
  List.iter (Metrics.observe h) [ 0.01; 0.01; 1e-9 ];
  let js = Metrics.to_json m in
  List.iter
    (fun needle -> check Alcotest.bool (needle ^ " present") true (contains js needle))
    [ "\"base\": 1e-06"; "\"buckets\": {"; "\"-1\": 1"; "\"13\": 2" ];
  (* empty buckets are skipped: the two entries above are the whole map *)
  check Alcotest.bool "no neighbouring empty bucket emitted" false (contains js "\"12\":");
  check Alcotest.string "bucket map is exactly the two non-empty entries"
    "{\"-1\": 1, \"13\": 2}"
    (let i =
       let rec find j =
         if String.sub js j 10 = "\"buckets\":" then j + 11 else find (j + 1)
       in
       find 0
     in
     String.sub js i (String.index_from js i '}' - i + 1))

let test_percentile_edges () =
  let m = Metrics.create () in
  (* a single observation is every percentile *)
  let one = Metrics.histogram m "one" in
  Metrics.observe one 0.25;
  List.iter
    (fun q ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "single obs: p%g" (q *. 100.0))
        0.25 (Metrics.percentile one q))
    [ 0.0; 0.01; 0.5; 0.99; 1.0 ];
  (* all-equal observations: the log-bucket midpoint must clamp to the
     observed value, not report the bucket's geometric centre *)
  let eq = Metrics.histogram m "eq" in
  for _ = 1 to 57 do
    Metrics.observe eq 3.0
  done;
  List.iter
    (fun q ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "all equal: p%g" (q *. 100.0))
        3.0 (Metrics.percentile eq q))
    [ 0.0; 0.25; 0.5; 0.95; 1.0 ];
  (* observations entirely below the base all sit in the underflow
     bucket, whose representative is the tracked minimum *)
  let uf = Metrics.histogram m "uf" in
  List.iter (Metrics.observe uf) [ 1e-9; 2e-9; 5e-10 ];
  check Alcotest.int "all in underflow" (-1) (Metrics.bucket_index uf 1e-9);
  List.iter
    (fun q ->
      check (Alcotest.float 1e-15)
        (Printf.sprintf "underflow only: p%g" (q *. 100.0))
        5e-10 (Metrics.percentile uf q))
    [ 0.0; 0.5; 1.0 ]

let prop_merge_then_percentile =
  QCheck.Test.make ~name:"merge_histogram then percentile == percentile of the union"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_bound_inclusive 20.0))
        (list_of_size Gen.(1 -- 40) (float_bound_inclusive 20.0)))
    (fun (xs, ys) ->
      let m = Metrics.create () in
      let a = Metrics.histogram m "a"
      and b = Metrics.histogram m "b"
      and union = Metrics.histogram m "u" in
      List.iter (Metrics.observe a) xs;
      List.iter (Metrics.observe b) ys;
      List.iter (Metrics.observe union) (xs @ ys);
      Metrics.merge_histogram a b;
      Metrics.observations a = Metrics.observations union
      && List.for_all
           (fun q ->
             Float.abs (Metrics.percentile a q -. Metrics.percentile union q) <= 1e-12)
           [ 0.0; 0.1; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ])

(* --- Chrome trace export --- *)

(* A tiny fully-deterministic scenario; its export is pinned byte for
   byte by test/trace_golden.json. If the export format changes on
   purpose, run the suite once and copy /tmp/highlight_trace_actual.json
   over test/trace_golden.json. *)
let golden_scenario ?metrics () =
  let e = Engine.create () in
  let tr = Trace.start e in
  (match metrics with Some m -> Trace.attach_metrics tr m | None -> ());
  Engine.spawn e ~name:"writer" (fun () ->
      Trace.span ~cat:"demo" "write" ~args:[ ("blk", "0") ] (fun () -> Engine.delay 1.0);
      let id = Trace.async_begin ~track:"reqs" ~cat:"lifecycle" "req" in
      Engine.delay 0.5;
      Trace.async_instant id ~args:[ ("phase", "mid") ];
      Engine.delay 0.5;
      Trace.async_end id);
  Engine.spawn e ~name:"poller" (fun () ->
      for i = 1 to 3 do
        Trace.counter ~track:"queue" "depth" (float_of_int i);
        Engine.delay 0.25
      done;
      Trace.instant ~cat:"demo" "tick");
  Engine.run e;
  Trace.stop ();
  tr

(* pull every "ts":<float> out of the export, in document order *)
let timestamps js =
  let out = ref [] in
  let key = "\"ts\":" in
  let len = String.length js in
  let rec scan i =
    match find_sub js key i with
    | None -> ()
    | Some j ->
        let s = j + String.length key in
        let e = ref s in
        while
          !e < len && (match js.[!e] with '0' .. '9' | '.' | '-' -> true | _ -> false)
        do
          incr e
        done;
        out := float_of_string (String.sub js s (!e - s)) :: !out;
        scan !e
  in
  scan 0;
  List.rev !out

let count_sub js sub =
  let rec go i acc =
    match find_sub js sub i with None -> acc | Some j -> go (j + 1) (acc + 1)
  in
  go 0 0

let test_trace_wellformed () =
  let tr = golden_scenario () in
  let js = Trace.export tr in
  check Alcotest.bool "array form" true
    (String.length js > 2 && js.[0] = '[' && String.ends_with ~suffix:"]\n" js);
  (* every async begin is closed *)
  check Alcotest.int "b/e balance" (count_sub js "\"ph\":\"b\"") (count_sub js "\"ph\":\"e\"");
  (* events are sorted by timestamp *)
  let ts = timestamps js in
  check Alcotest.bool "has events" true (List.length ts >= 8);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  check Alcotest.bool "time-ordered" true (sorted ts);
  (* both processes appear as named tracks *)
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " track") true
        (contains js (Printf.sprintf "{\"name\":\"%s\"}" name)))
    [ "writer"; "poller"; "reqs"; "queue" ]

let test_trace_golden () =
  let m = Metrics.create () in
  let tr = golden_scenario ~metrics:m () in
  (* the golden scenario runs unsampled and far under the buffer
     limit: a nonzero trace.dropped here means the recording path
     itself lost events, which would quietly invalidate the pinned
     export *)
  check Alcotest.int "trace.dropped is 0" 0 (Metrics.count (Metrics.counter m "trace.dropped"));
  check Alcotest.int "no ring evictions" 0 (Trace.evicted tr);
  let actual = Trace.export tr in
  let golden =
    (* dune copies the dep next to the test binary; cwd varies between
       [dune runtest] and [dune exec] *)
    let path =
      let beside_exe = Filename.concat (Filename.dirname Sys.executable_name) "trace_golden.json" in
      List.find Sys.file_exists [ "trace_golden.json"; "test/trace_golden.json"; beside_exe ]
    in
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  if not (String.equal actual golden) then begin
    let oc = open_out "/tmp/highlight_trace_actual.json" in
    output_string oc actual;
    close_out oc;
    Alcotest.failf
      "trace export differs from trace_golden.json (actual written to \
       /tmp/highlight_trace_actual.json)"
  end

let test_trace_disabled_and_limit () =
  (* with no tracer installed everything is a no-op *)
  Trace.stop ();
  Trace.instant "nobody-home";
  check Alcotest.int "span still runs" 7 (Trace.span "s" (fun () -> 7));
  check Alcotest.int "async id is -1" (-1) (Trace.async_begin "r");
  (* the buffer cap counts drops instead of growing *)
  let e = Engine.create () in
  let tr = Trace.start ~limit:3 e in
  Engine.spawn e (fun () ->
      for i = 0 to 9 do
        Trace.instant (string_of_int i)
      done);
  Engine.run e;
  Trace.stop ();
  check Alcotest.int "kept" 3 (Trace.event_count tr);
  check Alcotest.int "dropped" 7 (Trace.dropped tr)

(* --- the instrumented stack end to end --- *)

(* Write a 2-segment file, migrate + eject it, demand-fetch it back,
   then quiesce the service layer. Returns what the observability layer
   saw plus the engine, so callers can assert on drained processes. *)
let world_scenario io_mode ~traced () =
  let e = Engine.create () in
  let tr = if traced then Some (Trace.start e) else None in
  let seen = ref None in
  Engine.spawn e ~name:"test-main" (fun () ->
      let hl, _fp = Test_service.make_world ~io_mode e in
      let data = Test_service.bytes_pattern (2 * Test_service.seg_bytes) 9 in
      Highlight.Hl.write_file hl "/f" data;
      Lfs.Fs.checkpoint (Highlight.Hl.fs hl);
      ignore (Highlight.Migrator.migrate_paths (Highlight.Hl.state hl) [ "/f" ]);
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/f" ];
      let got = Highlight.Hl.read_file hl "/f" () in
      check Alcotest.bool "readback identical" true (Bytes.equal got data);
      seen := Some (Highlight.Hl.stats hl, Highlight.Hl.metrics hl);
      Highlight.Hl.shutdown_service hl);
  Engine.run e;
  if traced then Trace.stop ();
  let stats, metrics = Option.get !seen in
  (stats, metrics, tr, e)

let test_shutdown_drains io_mode () =
  let _, _, _, e = world_scenario io_mode ~traced:false () in
  check Alcotest.(list string) "no blocked processes" [] (Engine.blocked_process_names e);
  check Alcotest.int "blocked count" 0 (Engine.blocked_processes e)

let test_world_metrics () =
  let stats, m, _, _ = world_scenario Highlight.State.Pipelined ~traced:false () in
  check Alcotest.bool "demand fetches counted" true (stats.Highlight.Hl.demand_fetches > 0);
  check Alcotest.bool "fetch p50 positive" true (stats.Highlight.Hl.fetch_latency_p50 > 0.0);
  check Alcotest.bool "fetch p99 >= p50" true
    (stats.Highlight.Hl.fetch_latency_p99 >= stats.Highlight.Hl.fetch_latency_p50);
  check Alcotest.bool "cache misses counted" true
    (Metrics.count (Metrics.counter m "cache.misses") > 0);
  match Metrics.find_histogram m "service.demand_fetch_latency_s" with
  | None -> Alcotest.fail "demand-fetch latency histogram missing"
  | Some h -> check Alcotest.bool "histogram populated" true (Metrics.observations h > 0)

let test_world_trace () =
  let _, _, tr, _ = world_scenario Highlight.State.Pipelined ~traced:true () in
  let js = Trace.export (Option.get tr) in
  List.iter
    (fun needle -> check Alcotest.bool (needle ^ " in trace") true (contains js needle))
    [ "demand-fetch"; "writeout"; "fetch:tertiary-read"; "fetch:disk-write" ];
  check Alcotest.int "every lifecycle closed" (count_sub js "\"ph\":\"b\"")
    (count_sub js "\"ph\":\"e\"")

(* --- the run recorder --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The world scenario (write, migrate, eject, read back) under a recorder
   with every plane on, SLOs and shadow policies included, or with none:
   the stats, the read bytes, the clock when the main process ended, and
   the run directory's files. *)
let recorded_scenario ~recorded () =
  let e = Engine.create () in
  let dir = Filename.temp_dir "hl-run" "" in
  let slo =
    match Obs.Health.parse "fetch_p99: demand_fetch.p99 < 600s\nerr: error_rate < 1%\n" with
    | Ok o -> o
    | Error m -> Alcotest.fail m
  in
  let shadows = Result.get_ok (Obs.Shadow.parse_many "stp:2,1+lru") in
  let run = if recorded then Some (Obs.Run.start ~slo ~shadows ~dir e) else None in
  let out = ref None in
  Engine.spawn e ~name:"test-main" (fun () ->
      let hl, _fp = Test_service.make_world e in
      Option.iter (fun r -> Obs.Run.attach r ~metrics:(Highlight.Hl.metrics hl)) run;
      Highlight.Hl.write_file hl "/f" (Test_service.bytes_pattern (2 * Test_service.seg_bytes) 9);
      Lfs.Fs.checkpoint (Highlight.Hl.fs hl);
      ignore (Highlight.Migrator.migrate_paths (Highlight.Hl.state hl) [ "/f" ]);
      Highlight.Hl.eject_tertiary_copies hl ~paths:[ "/f" ];
      let got = Highlight.Hl.read_file hl "/f" () in
      let shutdown () = Highlight.Hl.shutdown_service hl in
      (match run with Some r -> Obs.Run.stop r ~shutdown | None -> shutdown ());
      out := Some (Highlight.Hl.stats hl, got, Engine.now e));
  Engine.run e;
  let files = Option.map (fun r -> ignore (Obs.Run.finish r); Sys.readdir dir) run in
  rm_rf dir;
  let stats, got, ended = Option.get !out in
  (stats, got, ended, files)

let test_planes_do_not_perturb () =
  let s0, got0, end0, _ = recorded_scenario ~recorded:false () in
  let s1, got1, end1, files = recorded_scenario ~recorded:true () in
  check Alcotest.bool "something was fetched" true (s0.Highlight.Hl.demand_fetches > 0);
  (* [attribution] is the ledger's own view, [] without one *)
  check Alcotest.bool "the ledger attributed" true (s1.Highlight.Hl.attribution <> []);
  check Alcotest.bool "equal Hl.stats" true (s0 = { s1 with Highlight.Hl.attribution = [] });
  check Alcotest.bool "byte-identical reads" true (Bytes.equal got0 got1);
  check (Alcotest.float 0.0) "main process ends at the same time" end0 end1;
  let files = List.sort compare (Array.to_list (Option.get files)) in
  check Alcotest.(list string) "run directory"
    [
      "decisions.ndjson"; "host.json"; "manifest.json"; "metrics.json"; "profile.json";
      "snapshots.csv"; "trace.json";
    ]
    files

(* [Gc.quick_stat]'s minor_words advances only at minor collections on
   OCaml 5, so right after one it reads 0 for a small run. *)
let test_host_minor_words () =
  let e = Engine.create () in
  let dir = Filename.temp_dir "hl-run" "" in
  Gc.minor ();
  let run = Obs.Run.start ~dir e in
  Obs.Run.attach run ~metrics:(Metrics.create ());
  (* 1000 conses: 3000 words *)
  ignore (Sys.opaque_identity (List.init 1000 Fun.id));
  Obs.Run.stop run ~shutdown:ignore;
  Engine.run e;
  let host = Obs.Run.finish run in
  rm_rf dir;
  check Alcotest.bool
    (Printf.sprintf "minor words %.0f >= 3000" host.Obs.Run.minor_words)
    true
    (host.Obs.Run.minor_words >= 3000.0)

let suite =
  [
    ( "obs.engine",
      [
        Alcotest.test_case "blocked process names" `Quick test_blocked_names;
        Alcotest.test_case "current process name" `Quick test_current_process;
      ] );
    ( "obs.stats",
      [
        Alcotest.test_case "empty and single-sample" `Quick test_stats_empty_and_single;
        Alcotest.test_case "absorb merges exactly" `Quick test_stats_absorb;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
        Alcotest.test_case "histogram sum is the fold" `Quick test_hist_sum_is_fold;
        Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
        Alcotest.test_case "percentiles of a known mix" `Quick test_percentiles_known;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        Alcotest.test_case "json export" `Quick test_metrics_json;
        Alcotest.test_case "json bucket map" `Quick test_metrics_json_buckets;
        Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
        QCheck_alcotest.to_alcotest prop_percentile_monotone;
        QCheck_alcotest.to_alcotest prop_merge_then_percentile;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "export is well-formed" `Quick test_trace_wellformed;
        Alcotest.test_case "golden file" `Quick test_trace_golden;
        Alcotest.test_case "disabled + buffer limit" `Quick test_trace_disabled_and_limit;
      ] );
    ( "obs.world",
      [
        Alcotest.test_case "shutdown drains (pipelined)" `Quick
          (test_shutdown_drains Highlight.State.Pipelined);
        Alcotest.test_case "shutdown drains (serial)" `Quick
          (test_shutdown_drains Highlight.State.Serial);
        Alcotest.test_case "demand fetch feeds metrics" `Quick test_world_metrics;
        Alcotest.test_case "demand fetch appears in trace" `Quick test_world_trace;
      ] );
    ( "obs.run",
      [
        Alcotest.test_case "planes do not perturb the simulation" `Quick
          test_planes_do_not_perturb;
        Alcotest.test_case "host cost counts minor words exactly" `Quick test_host_minor_words;
      ] );
  ]
