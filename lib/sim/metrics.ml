type counter = { c_name : string; mutable c_count : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_max : float }

let nbuckets = 64

type histogram = {
  h_name : string;
  base : float; (* lower bound of bucket 0; bucket i covers [base*2^i, base*2^(i+1)) *)
  buckets : int array;
  mutable underflow : int; (* observations below [base] (including <= 0) *)
  welford : Stats.t;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 32; histograms = Hashtbl.create 32 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_count = 0 } in
      Hashtbl.replace t.counters name c;
      c

let incr ?(by = 1) c = c.c_count <- c.c_count + by
let count c = c.c_count

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = 0.0; g_max = 0.0 } in
      Hashtbl.replace t.gauges name g;
      g

let set g v =
  g.g_value <- v;
  if v > g.g_max then g.g_max <- v

let value g = g.g_value
let max_value g = g.g_max

let make_histogram ?(base = 1e-6) name =
  if base <= 0.0 then invalid_arg "Metrics: histogram base must be positive";
  { h_name = name; base; buckets = Array.make nbuckets 0; underflow = 0; welford = Stats.create name }

let histogram t ?base name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = make_histogram ?base name in
      Hashtbl.replace t.histograms name h;
      h

let bucket_lo h i = h.base *. Float.pow 2.0 (float_of_int i)

(* -1 means underflow. log2 gets within one bucket; the fix-up makes the
   boundaries exact: bucket_lo i <= x < bucket_lo (i+1), modulo the
   clamp of the final bucket. *)
let bucket_index h x =
  if x < h.base then -1
  else begin
    let i = int_of_float (Float.floor (Float.log2 (x /. h.base))) in
    let i = min i (nbuckets - 1) in
    let i = if x < bucket_lo h i then i - 1 else i in
    let i = if i + 1 < nbuckets && x >= bucket_lo h (i + 1) then i + 1 else i in
    max 0 (min (nbuckets - 1) i)
  end

let observe h x =
  Stats.add h.welford x;
  match bucket_index h x with
  | -1 -> h.underflow <- h.underflow + 1
  | i -> h.buckets.(i) <- h.buckets.(i) + 1

let observations h = Stats.count h.welford
let bucket_count h i = if i < 0 then h.underflow else h.buckets.(i)
let hist_mean h = Stats.mean h.welford
let hist_sum h = Stats.total h.welford
let hist_stddev h = Stats.stddev h.welford
let hist_min h = Stats.min_value h.welford
let hist_max h = Stats.max_value h.welford

(* Rank percentile over the log buckets: the representative of the
   selected bucket is its geometric midpoint, clamped to the observed
   [min, max]. Monotone in q, exact for single-valued data, and within
   a factor sqrt(2) of the true quantile otherwise. *)
let percentile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.percentile: q outside [0,1]";
  let n = Stats.count h.welford in
  if n = 0 then 0.0
  else begin
    let target = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
    let clamp v = Float.min (hist_max h) (Float.max (hist_min h) v) in
    if h.underflow >= target then hist_min h
    else begin
      let rec scan i cum =
        if i >= nbuckets then hist_max h
        else begin
          let cum = cum + h.buckets.(i) in
          if cum >= target then clamp (sqrt (bucket_lo h i *. bucket_lo h (i + 1)))
          else scan (i + 1) cum
        end
      in
      scan 0 h.underflow
    end
  end

let merge_histogram dst src =
  if dst.base <> src.base then invalid_arg "Metrics.merge_histogram: bucket bases differ";
  dst.underflow <- dst.underflow + src.underflow;
  Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  Stats.absorb dst.welford src.welford

let reset_histogram h =
  Array.fill h.buckets 0 nbuckets 0;
  h.underflow <- 0;
  Stats.reset h.welford

let reset t =
  Hashtbl.iter (fun _ c -> c.c_count <- 0) t.counters;
  Hashtbl.iter
    (fun _ g ->
      g.g_value <- 0.0;
      g.g_max <- 0.0)
    t.gauges;
  Hashtbl.iter (fun _ h -> reset_histogram h) t.histograms

let find_histogram t name = Hashtbl.find_opt t.histograms name

let iter_sorted tbl f =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, v) -> f name v)

let iter_histograms t f = iter_sorted t.histograms f
let iter_counters t f = iter_sorted t.counters f
let iter_gauges t f = iter_sorted t.gauges f

(* ---------- JSON export ---------- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"highlight-metrics/v1\",\n  \"counters\": {";
  List.iteri
    (fun i (name, c) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n    \"%s\": %d" name c.c_count))
    (sorted_bindings t.counters);
  Buffer.add_string b "\n  },\n  \"gauges\": {";
  List.iteri
    (fun i (name, g) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    \"%s\": { \"last\": %g, \"max\": %g }" name g.g_value g.g_max))
    (sorted_bindings t.gauges);
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char b ',';
      let n = observations h in
      if n = 0 then Buffer.add_string b (Printf.sprintf "\n    \"%s\": { \"count\": 0 }" name)
      else begin
        Buffer.add_string b
          (Printf.sprintf
             "\n    \"%s\": { \"count\": %d, \"mean\": %.6g, \"stddev\": %.6g, \"min\": %.6g, \
              \"max\": %.6g, \"p50\": %.6g, \"p95\": %.6g, \"p99\": %.6g, \"base\": %.6g, \
              \"buckets\": {"
             name n (hist_mean h) (hist_stddev h) (hist_min h) (hist_max h) (percentile h 0.50)
             (percentile h 0.95) (percentile h 0.99) h.base);
        (* non-empty buckets only, index-ascending ("-1" = underflow):
           enough to rebuild the full distribution, not just p50/95/99 *)
        let first = ref true in
        let put i c =
          if c > 0 then begin
            if not !first then Buffer.add_string b ", ";
            first := false;
            Buffer.add_string b (Printf.sprintf "\"%d\": %d" i c)
          end
        in
        put (-1) h.underflow;
        Array.iteri put h.buckets;
        Buffer.add_string b "} }"
      end)
    (sorted_bindings t.histograms);
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

let write_file t path =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc
