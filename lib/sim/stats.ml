type t = {
  label : string;
  mutable n : int;
  mutable sum : float;
  mutable mean : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let create label =
  { label; n = 0; sum = 0.0; mean = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  let d = x -. t.mean in
  t.mean <- t.mean +. (d /. float_of_int t.n);
  t.m2 <- t.m2 +. (d *. (x -. t.mean));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.n
let total t = t.sum
let mean t = t.mean
let stddev t = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))
let min_value t = t.lo
let max_value t = t.hi

(* Pairwise combination of two Welford accumulators (Chan et al.). *)
let absorb t o =
  if o.n > 0 then begin
    if t.n = 0 then begin
      t.n <- o.n;
      t.sum <- o.sum;
      t.mean <- o.mean;
      t.m2 <- o.m2;
      t.lo <- o.lo;
      t.hi <- o.hi
    end
    else begin
      let na = float_of_int t.n and nb = float_of_int o.n in
      let n = na +. nb in
      let d = o.mean -. t.mean in
      t.m2 <- t.m2 +. o.m2 +. (d *. d *. na *. nb /. n);
      t.mean <- t.mean +. (d *. nb /. n);
      t.n <- t.n + o.n;
      t.sum <- t.sum +. o.sum;
      if o.lo < t.lo then t.lo <- o.lo;
      if o.hi > t.hi then t.hi <- o.hi
    end
  end

let reset t =
  t.n <- 0;
  t.sum <- 0.0;
  t.mean <- 0.0;
  t.m2 <- 0.0;
  t.lo <- infinity;
  t.hi <- neg_infinity
