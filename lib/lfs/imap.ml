open Util

type entry = { mutable addr : int; mutable version : int; mutable atime : float }

type t = {
  entries : entry array;
  dirty : (int, unit) Hashtbl.t;  (* imap block index -> dirty *)
  mutable nalloc : int;
  mutable free_hint : int;
}

let first_regular_inum = 4
let entry_bytes = 16
let entries_per_block ~block_size = block_size / entry_bytes
let nblocks ~max_inodes ~block_size =
  (max_inodes + entries_per_block ~block_size - 1) / entries_per_block ~block_size

let create ~max_inodes =
  {
    entries = Array.init max_inodes (fun _ -> { addr = -1; version = 0; atime = 0.0 });
    dirty = Hashtbl.create 16;
    nalloc = 0;
    free_hint = first_regular_inum;
  }

let max_inodes t = Array.length t.entries

let get t inum =
  if inum < 0 || inum >= Array.length t.entries then invalid_arg "Imap.get: bad inum";
  t.entries.(inum)

(* The block index is geometry-dependent; dirtiness is tracked at a
   nominal 4 KB block size and re-derived if serialized differently.
   We simply record the inum and compute blocks on demand. *)
let touch t inum = Hashtbl.replace t.dirty inum ()

let set_addr t inum addr =
  let e = get t inum in
  e.addr <- addr;
  touch t inum

let set_atime t inum atime =
  let e = get t inum in
  e.atime <- atime;
  touch t inum

let alloc t =
  let n = Array.length t.entries in
  let rec find i steps =
    if steps > n then failwith "Imap.alloc: inode map full"
    else
      let i = if i >= n then first_regular_inum else i in
      if t.entries.(i).addr = -1 then i else find (i + 1) (steps + 1)
  in
  let inum = find t.free_hint 0 in
  let e = t.entries.(inum) in
  e.version <- e.version + 1;
  e.addr <- 0 (* allocated but not yet on disk: distinct from -1 *);
  t.free_hint <- inum + 1;
  t.nalloc <- t.nalloc + 1;
  touch t inum;
  inum

let alloc_specific t inum =
  if inum < 1 || inum >= first_regular_inum then
    invalid_arg "Imap.alloc_specific: not a reserved inum";
  let e = get t inum in
  if e.addr <> -1 then invalid_arg "Imap.alloc_specific: already allocated";
  e.version <- e.version + 1;
  e.addr <- 0;
  t.nalloc <- t.nalloc + 1;
  touch t inum

let free t inum =
  let e = get t inum in
  if e.addr = -1 then invalid_arg "Imap.free: not allocated";
  e.addr <- -1;
  e.version <- e.version + 1;
  t.nalloc <- t.nalloc - 1;
  if inum < t.free_hint && inum >= first_regular_inum then t.free_hint <- inum;
  touch t inum

let nfiles t = t.nalloc

let iter_allocated t f =
  Array.iteri (fun inum e -> if e.addr <> -1 then f inum e) t.entries

let serialize_block t ~block_size idx =
  let epb = entries_per_block ~block_size in
  let b = Bytes.make block_size '\000' in
  let base = idx * epb in
  for i = 0 to epb - 1 do
    let inum = base + i in
    if inum < Array.length t.entries then begin
      let e = t.entries.(inum) in
      let off = i * entry_bytes in
      Bytesx.set_i32 b off e.addr;
      Bytesx.set_u32 b (off + 4) e.version;
      Bytesx.set_u64 b (off + 8) (Int64.bits_of_float e.atime)
    end
  done;
  b

let load_block t ~block_size idx b =
  let epb = entries_per_block ~block_size in
  let base = idx * epb in
  for i = 0 to epb - 1 do
    let inum = base + i in
    if inum < Array.length t.entries then begin
      let e = t.entries.(inum) in
      let off = i * entry_bytes in
      let was_alloc = e.addr <> -1 in
      e.addr <- Bytesx.get_i32 b off;
      e.version <- Bytesx.get_u32 b (off + 4);
      e.atime <- Int64.float_of_bits (Bytesx.get_u64 b (off + 8));
      let is_alloc = e.addr <> -1 in
      if is_alloc && not was_alloc then t.nalloc <- t.nalloc + 1
      else if was_alloc && not is_alloc then t.nalloc <- t.nalloc - 1
    end
  done

let dirty_blocks t ~block_size =
  let epb = entries_per_block ~block_size in
  let blocks = Hashtbl.create 8 in
  Hashtbl.iter (fun inum () -> Hashtbl.replace blocks (inum / epb) ()) t.dirty;
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) blocks [])

let mark_all_dirty t =
  for inum = 0 to Array.length t.entries - 1 do
    touch t inum
  done

let clear_dirty t = Hashtbl.reset t.dirty
