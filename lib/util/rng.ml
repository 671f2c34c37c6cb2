type t = { mutable state : int64 }

let golden = 0x9e3779b97f4a7c15L

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 = next

let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

(* Cumulative-distribution Zipf: O(n) setup, O(log n) draw by binary
   search over the CDF. n is at most a few hundred thousand here. *)
type zipf = { cdf : float array }

let zipf ~s ~n =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int k) s);
    cdf.(k - 1) <- !acc
  done;
  let total = !acc in
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. total
  done;
  { cdf }

let zipf_draw t z =
  let u = float t 1.0 in
  let n = Array.length z.cdf in
  let rec search lo hi =
    if lo >= hi then lo + 1
    else
      let mid = (lo + hi) / 2 in
      if z.cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (n - 1)
