(* Self-test of the benchmark's own helpers: the percentile rule, the
   metric-name rule, and the oracle catching a deliberately corrupted
   model byte on a tiny traced HighLight world. Silent on success. *)

open Highlight

let run () =
  let ok = ref true in
  let check what cond =
    if not cond then begin
      Printf.eprintf "perfbench self-test FAILED: %s\n%!" what;
      ok := false
    end
  in
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "p99 refused below 1000 samples" (Metric.percentile (ramp 999) 99 = None);
  check "p99 of 1..1000 is 990" (Metric.percentile (ramp 1000) 99 = Some 990.0);
  check "p50 refused below 20 samples" (Metric.percentile (ramp 19) 50 = None);
  check "p50 of 1..20 is 10" (Metric.percentile (ramp 20) 50 = Some 10.0);
  check "metric names accepted"
    (List.for_all Metric.valid_name [ "wall_s"; "core.ledger.queue_wait_s"; "read_p99_s"; "a-b.C_9" ]);
  check "bad metric names refused"
    (not (List.exists Metric.valid_name [ ""; "a b"; "x/y"; "p99%"; String.make 65 'a' ]));
  check "a metric needs a unit"
    (match Metric.make "x" "" 1.0 with _ -> false | exception Invalid_argument _ -> true);
  let path = "/t" in
  let prm = { Workloads.paper_prm with Lfs.Param.nsegs = 24; max_inodes = 64 } in
  let o =
    Workloads.harness ~traced:true
      ~devices:(Workloads.devices ~nvolumes:2 ~segs_per_volume:8)
      ~mkfs:(fun engine disk fp -> Hl.mkfs engine prm ~disk ~fp ~cache_segs:2 ())
      ~populate:(fun env ->
        let c = env.Workloads.client in
        let data = Bytes.init Workloads.piece (fun i -> Char.chr (i land 0xff)) in
        Client.write c path ~off:0 data (fun () -> Hl.write_file env.hl path data);
        let read () =
          Client.read c path ~off:0 ~len:4096 (fun () -> Hl.read_file env.hl path ~len:4096 ())
        in
        fun () ->
          read ();
          Model.corrupt c.Client.model path ~pos:100;
          read ();
          Model.corrupt c.Client.model path ~pos:100)
  in
  check "a corrupted model byte is one failed op"
    (o.Workloads.failed = 1 && o.attempted = 3 && List.length o.problems = 1);
  let names = List.map (fun m -> m.Metric.name) (Layers.metrics o.counters) in
  check "per-layer metrics named once" (List.length (List.sort_uniq compare names) = List.length names);
  check "per-layer metrics reported" (List.length names > 60);
  Span.finished := [];
  !ok
