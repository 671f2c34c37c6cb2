type buf = { bytes : Bytes.t; mutable free : bool }

(* The free list is a stack in [stack.(0 .. nfree - 1)]: an array, so a
   take or give allocates nothing. *)
type t = {
  size : int;
  mutable stack : buf array;
  mutable nfree : int;
  mutable out : int; (* taken and not given back, dropped ones included *)
}

let none = { bytes = Bytes.empty; free = true }

let create size =
  if size <= 0 then invalid_arg "Bufpool.create: size must be positive";
  { size; stack = Array.make 16 none; nfree = 0; out = 0 }

let take t =
  t.out <- t.out + 1;
  if t.nfree = 0 then { bytes = Bytes.create t.size; free = false }
  else begin
    t.nfree <- t.nfree - 1;
    let b = t.stack.(t.nfree) in
    t.stack.(t.nfree) <- none;
    b.free <- false;
    b
  end

let bytes b = b.bytes

let give t b =
  if Bytes.length b.bytes <> t.size then invalid_arg "Bufpool.give: buffer of another size";
  if t.out = 0 || b.free then invalid_arg "Bufpool.give: buffer already free";
  t.out <- t.out - 1;
  b.free <- true;
  if t.nfree = Array.length t.stack then begin
    let bigger = Array.make (2 * t.nfree) none in
    Array.blit t.stack 0 bigger 0 t.nfree;
    t.stack <- bigger
  end;
  t.stack.(t.nfree) <- b;
  t.nfree <- t.nfree + 1

let is_free b = b.free
let free_count t = t.nfree
