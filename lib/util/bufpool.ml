type t = {
  size : int;
  mutable free : Bytes.t list;
  mutable out : int; (* taken and not given back, dropped ones included *)
}

let create size =
  if size <= 0 then invalid_arg "Bufpool.create: size must be positive";
  { size; free = []; out = 0 }

let take t =
  t.out <- t.out + 1;
  match t.free with
  | b :: rest ->
      t.free <- rest;
      b
  | [] -> Bytes.create t.size

(* The free list is as long as the peak number of buffers out at once
   (a handful), so the double-give scan is cheap. *)
let is_free t b = List.exists (fun f -> f == b) t.free

let give t b =
  if Bytes.length b <> t.size then invalid_arg "Bufpool.give: buffer of another size";
  if t.out = 0 || is_free t b then invalid_arg "Bufpool.give: buffer already free";
  t.out <- t.out - 1;
  t.free <- b :: t.free

let free_count t = List.length t.free
