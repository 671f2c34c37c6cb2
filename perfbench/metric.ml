(* Named measurements, the percentile rule, and the result line. *)

type t = { name : string; unit_ : string; value : float }

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let make name unit_ value =
  if not (valid_name name) then invalid_arg ("Metric.make: bad name " ^ name);
  if unit_ = "" then invalid_arg ("Metric.make: no unit for " ^ name);
  { name; unit_; value }

(* Host clock: CLOCK_MONOTONIC, allocation-free. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Growable float vector for latency samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let clear t = t.n <- 0
  let to_array t = Array.sub t.a 0 t.n
end

(* Nearest-rank [pct]-th percentile, reported only when at least ten
   samples lie beyond it (so p99 needs 1000 samples, p50 needs 20). *)
let percentile samples pct =
  if pct <= 0 || pct >= 100 then invalid_arg "Metric.percentile";
  let n = Array.length samples in
  let rank = ((pct * n) + 99) / 100 in
  if n = 0 || n - rank < 10 then None
  else begin
    let s = Array.copy samples in
    Array.sort compare s;
    Some s.(rank - 1)
  end

let median = function
  | [] -> invalid_arg "Metric.median"
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    metrics
    |> List.map (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
    |> String.concat ", "
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body
