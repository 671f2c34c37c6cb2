(* Slots are ['a option] so a popped element's cell can be reset to
   [None]: with a bare ['a array] the freed tail slots kept their last
   occupant reachable — a space leak when elements own big payloads
   (the segment-cache LRU holds cache-line records). *)
type 'a t = { mutable data : 'a option array; mutable size : int; cmp : 'a -> 'a -> int }

let create ?(capacity = 0) ~cmp () = { data = Array.make (max capacity 0) None; size = 0; cmp }
let length t = t.size

let get t i = match Array.unsafe_get t.data i with Some x -> x | None -> assert false

let grow t =
  let cap = Array.length t.data in
  if t.size >= cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap None in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (get t i) (get t parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp (get t l) (get t !smallest) < 0 then smallest := l;
  if r < t.size && t.cmp (get t r) (get t !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t;
  t.data.(t.size) <- Some x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    (* move the last element to the root and *clear its old slot* so
       nothing beyond [size] stays reachable *)
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      t.data.(t.size) <- None;
      sift_down t 0
    end
    else t.data.(0) <- None;
    top
  end

let peek t = if t.size = 0 then None else t.data.(0)

let clear t =
  Array.fill t.data 0 (Array.length t.data) None;
  t.size <- 0
