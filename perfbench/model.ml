(* The oracle: an in-memory copy of every file's bytes, updated on each
   write the client issues and compared against every read it gets
   back. *)

type file = { mutable data : Bytes.t; mutable size : int }
type t = (string, file) Hashtbl.t

let create () : t = Hashtbl.create 64

let file t path =
  match Hashtbl.find_opt t path with
  | Some f -> f
  | None ->
      let f = { data = Bytes.create 0; size = 0 } in
      Hashtbl.replace t path f;
      f

let write t path ~off src =
  let f = file t path in
  let len = Bytes.length src in
  let stop = off + len in
  if stop > Bytes.length f.data then begin
    let grown = Bytes.make (max stop (2 * Bytes.length f.data)) '\000' in
    Bytes.blit f.data 0 grown 0 f.size;
    f.data <- grown
  end;
  (* a write past EOF leaves a hole, which reads back as zeros *)
  if off > f.size then Bytes.fill f.data f.size (off - f.size) '\000';
  Bytes.blit src 0 f.data off len;
  f.size <- max f.size stop

let delete t path = Hashtbl.remove t path
let size t path = match Hashtbl.find_opt t path with Some f -> f.size | None -> 0
let paths t = Hashtbl.fold (fun p _ acc -> p :: acc) t [] |> List.sort compare

(* True when [got] is exactly what a read of [len] bytes at [off] must
   return (short at EOF). Word-at-a-time, without allocating, so the
   oracle adds little to the timed phase. *)
let matches t path ~off ~len got =
  let f = file t path in
  let want = max 0 (min len (f.size - off)) in
  Bytes.length got = want
  &&
  let rec words i =
    if i + 8 > want then bytes i
    else Bytes.get_int64_ne got i = Bytes.get_int64_ne f.data (off + i) && words (i + 8)
  and bytes i = i >= want || (Bytes.get got i = Bytes.get f.data (off + i) && bytes (i + 1)) in
  words 0

(* Flips one modelled byte: the self-test's deliberate corruption. *)
let corrupt t path ~pos =
  let f = file t path in
  if pos >= f.size then invalid_arg "Model.corrupt";
  Bytes.set f.data pos (Char.chr (Char.code (Bytes.get f.data pos) lxor 0xff))
