(* Structure-of-arrays 4-ary min-heap. Keys are (time, seq) split into
   a flat float array and an int array: loads are unboxed, compares are
   two machine instructions, and sifting never calls out. Slots travel
   with their key in a third array. A 4-ary shape halves the depth of
   the binary heap, which matters when a few thousand timer processes
   keep the queue deep; the wider child scan is cheap since all four
   keys sit in one or two cache lines.

   Sift loops are written as recursive functions over an immediate
   index (no refs, no closures) and move a hole instead of swapping, so
   each level costs one 3-array store rather than three exchanges. *)

type action =
  | Noop
  | Thunk of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation

type slot = { mutable act : action; pid : int; name : string }

let dummy = { act = Noop; pid = -1; name = "" }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : slot array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 16) () =
  let cap = max 16 capacity in
  {
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    slots = Array.make cap dummy;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.slots in
  if t.size >= cap then begin
    let ncap = 2 * cap in
    let ntimes = Array.make ncap 0.0 in
    let nseqs = Array.make ncap 0 in
    let nslots = Array.make ncap dummy in
    Array.blit t.times 0 ntimes 0 t.size;
    Array.blit t.seqs 0 nseqs 0 t.size;
    Array.blit t.slots 0 nslots 0 t.size;
    t.times <- ntimes;
    t.seqs <- nseqs;
    t.slots <- nslots
  end

(* All sifting is index-only: keys are compared and moved inside the
   arrays and never bound to a float variable that crosses a function
   boundary, because without flambda a float argument to a non-inlined
   call is a 2-word heap box — per event, on the hottest path in the
   tree. *)

(* Strict (time, seq) order between positions [j] and [m]. *)
let lt t j m =
  let tj = Array.unsafe_get t.times j and tm = Array.unsafe_get t.times m in
  tj < tm || (tj = tm && Array.unsafe_get t.seqs j < Array.unsafe_get t.seqs m)

let swap t i j =
  let ti = Array.unsafe_get t.times i in
  Array.unsafe_set t.times i (Array.unsafe_get t.times j);
  Array.unsafe_set t.times j ti;
  let si = Array.unsafe_get t.seqs i in
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.seqs j si;
  let pi = Array.unsafe_get t.slots i in
  Array.unsafe_set t.slots i (Array.unsafe_get t.slots j);
  Array.unsafe_set t.slots j pi

(* Swap the entry at [i] toward the root while it beats its parent.
   Pushed entries are usually later than everything above them (a timer
   re-arms into the future), so this walk is almost always zero or one
   level. *)
let rec up_from t i =
  if i > 0 then begin
    let p = (i - 1) / 4 in
    if lt t i p then begin
      swap t i p;
      up_from t p
    end
  end

let push t ~time slot =
  grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let n = t.size in
  t.size <- n + 1;
  Array.unsafe_set t.times n time;
  Array.unsafe_set t.seqs n seq;
  Array.unsafe_set t.slots n slot;
  up_from t n

type clock = { mutable time : float }

let push_after t (clock : clock) slot ~after =
  grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let n = t.size in
  t.size <- n + 1;
  Array.unsafe_set t.times n
    (clock.time +. (if after > 0.0 then after else 0.0));
  Array.unsafe_set t.seqs n seq;
  Array.unsafe_set t.slots n slot;
  up_from t n

let min_child t n c1 =
  let m = c1 in
  let m = if c1 + 1 < n && lt t (c1 + 1) m then c1 + 1 else m in
  let m = if c1 + 2 < n && lt t (c1 + 2) m then c1 + 2 else m in
  let m = if c1 + 3 < n && lt t (c1 + 3) m then c1 + 3 else m in
  m

(* Sink the hole at the root to a leaf along minimum children; returns
   the leaf position. Bottom-up deletion: no key rides along, so each
   level is three compares and one three-array move, and nothing
   boxes. *)
let rec sink_hole t n i =
  let c1 = (4 * i) + 1 in
  if c1 >= n then i
  else begin
    let m = min_child t n c1 in
    Array.unsafe_set t.times i (Array.unsafe_get t.times m);
    Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs m);
    Array.unsafe_set t.slots i (Array.unsafe_get t.slots m);
    sink_hole t n m
  end

let min_time t =
  if t.size = 0 then invalid_arg "Eventq.min_time: empty";
  Array.unsafe_get t.times 0

let pop t =
  if t.size = 0 then invalid_arg "Eventq.pop: empty";
  let top = Array.unsafe_get t.slots 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n = 0 then Array.unsafe_set t.slots 0 dummy
  else begin
    (* the hole ends at a leaf < n; refill it with the former last
       entry (leaf-ish, so the up-walk is almost always zero levels)
       and scrub the freed cell so no retired slot is retained *)
    let h = sink_hole t n 0 in
    Array.unsafe_set t.times h (Array.unsafe_get t.times n);
    Array.unsafe_set t.seqs h (Array.unsafe_get t.seqs n);
    Array.unsafe_set t.slots h (Array.unsafe_get t.slots n);
    Array.unsafe_set t.slots n dummy;
    up_from t h
  end;
  top

let pop_into t clock =
  if t.size = 0 then invalid_arg "Eventq.pop_into: empty";
  clock.time <- Array.unsafe_get t.times 0;
  pop t
