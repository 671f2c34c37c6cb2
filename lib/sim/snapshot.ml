(* Periodic metric snapshots: a sim-time sampler process captures the
   whole registry every [period] simulated seconds into a bounded ring
   of timestamped samples, for utilization-vs-time and
   queue-depth-vs-time plots that single end-of-run aggregates cannot
   show. Export as wide CSV (one column set per instrument, union over
   all samples since instruments register lazily) or JSON. *)

type value =
  | Counter of int
  | Gauge of { last : float; max : float }
  | Hist of { n : int; mean : float; p50 : float; p95 : float; p99 : float }

type sample = { ts : float; values : (string * value) list (* name-sorted *) }

type t = {
  engine : Engine.t;
  metrics : Metrics.t;
  period : float;
  cap : int;
  ring : sample Queue.t;
  mutable evicted : int;
  mutable stopped : bool;
}

let create engine ~metrics ?(period = 60.0) ?(cap = 2048) () =
  if period <= 0.0 then invalid_arg "Snapshot: period must be positive";
  if cap <= 0 then invalid_arg "Snapshot: cap must be positive";
  { engine; metrics; period; cap; ring = Queue.create (); evicted = 0; stopped = false }

let capture t =
  let vs = ref [] in
  Metrics.iter_histograms t.metrics (fun name h ->
      let n = Metrics.observations h in
      vs :=
        ( name,
          Hist
            {
              n;
              mean = (if n = 0 then 0.0 else Metrics.hist_mean h);
              p50 = Metrics.percentile h 0.50;
              p95 = Metrics.percentile h 0.95;
              p99 = Metrics.percentile h 0.99;
            } )
        :: !vs);
  Metrics.iter_gauges t.metrics (fun name g ->
      vs := (name, Gauge { last = Metrics.value g; max = Metrics.max_value g }) :: !vs);
  Metrics.iter_counters t.metrics (fun name c -> vs := (name, Counter (Metrics.count c)) :: !vs);
  Queue.add { ts = Engine.now t.engine; values = !vs } t.ring;
  while Queue.length t.ring > t.cap do
    ignore (Queue.pop t.ring);
    t.evicted <- t.evicted + 1
  done

let start engine ~metrics ?period ?cap () =
  let t = create engine ~metrics ?period ?cap () in
  Engine.spawn engine ~name:"metrics-sampler" (fun () ->
      let rec loop () =
        if not t.stopped then begin
          Engine.delay t.period;
          if not t.stopped then begin
            capture t;
            loop ()
          end
        end
      in
      loop ());
  t

(* The closing capture matters more than it looks: instruments register
   lazily, and a run's most active phase is often shorter than one
   period at the very end — without this sample it would be invisible. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    capture t
  end
let period t = t.period
let length t = Queue.length t.ring
let evicted t = t.evicted
let samples t = List.of_seq (Queue.to_seq t.ring)

(* ---------- export ---------- *)

(* One CSV column set per instrument kind; numbers in %.6g so the files
   stay small over long soaks. *)
let value_cells name = function
  | Counter n -> [ (name, string_of_int n) ]
  | Gauge { last; max } ->
      [ (name, Printf.sprintf "%.6g" last); (name ^ ".max", Printf.sprintf "%.6g" max) ]
  | Hist { n; p50; p95; p99; _ } ->
      [
        (name ^ ".count", string_of_int n);
        (name ^ ".p50", Printf.sprintf "%.6g" p50);
        (name ^ ".p95", Printf.sprintf "%.6g" p95);
        (name ^ ".p99", Printf.sprintf "%.6g" p99);
      ]

let to_csv t =
  let samples = samples t in
  let columns =
    List.concat_map
      (fun s -> List.concat_map (fun (name, v) -> List.map fst (value_cells name v)) s.values)
      samples
    |> List.sort_uniq compare
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b (String.concat "," ("ts" :: columns));
  Buffer.add_char b '\n';
  List.iter
    (fun s ->
      let cells = Hashtbl.create 64 in
      List.iter
        (fun (name, v) ->
          List.iter (fun (col, cell) -> Hashtbl.replace cells col cell) (value_cells name v))
        s.values;
      Buffer.add_string b (Printf.sprintf "%.6f" s.ts);
      List.iter
        (fun col ->
          Buffer.add_char b ',';
          Buffer.add_string b (Option.value (Hashtbl.find_opt cells col) ~default:""))
        columns;
      Buffer.add_char b '\n')
    samples;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"highlight-snapshots/v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"period_s\": %.6g,\n" t.period);
  Buffer.add_string b (Printf.sprintf "  \"evicted\": %d,\n  \"samples\": [" t.evicted);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n    { \"ts\": %.6f" s.ts);
      List.iter
        (fun (name, v) ->
          Buffer.add_string b
            (match v with
            | Counter n -> Printf.sprintf ", \"%s\": %d" name n
            | Gauge { last; max } ->
                Printf.sprintf ", \"%s\": { \"last\": %.6g, \"max\": %.6g }" name last max
            | Hist { n; mean; p50; p95; p99 } ->
                Printf.sprintf
                  ", \"%s\": { \"count\": %d, \"mean\": %.6g, \"p50\": %.6g, \"p95\": %.6g, \
                   \"p99\": %.6g }"
                  name n mean p50 p95 p99))
        (List.sort (fun (a, _) (b, _) -> String.compare a b) s.values);
      Buffer.add_string b " }")
    (samples t);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
