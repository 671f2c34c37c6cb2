open Util

type key = int * Bkey.t

(* [crc] is the CRC-32 the bytes were last read or flushed with, or -1
   once they may have changed (or were never summed). [buf] is the
   pooled buffer behind [data], or [Bufpool.none] when a caller handed
   the bytes in ({!put_clean}, {!put_dirty}): only pooled buffers go
   back to the pool when the entry lets go of them. *)
type entry = {
  mutable data : Bytes.t;
  mutable buf : Bufpool.buf;
  mutable addr : int;
  mutable crc : int;
}

type t = {
  clean : (key, entry) Lru.t;
  dirty : (key, entry) Hashtbl.t;
  pool : Bufpool.t;
  cap : int;
  mutable n_hits : int;
  mutable n_misses : int;
}

let release pool e =
  if e.buf != Bufpool.none then begin
    Bufpool.give pool e.buf;
    e.buf <- Bufpool.none
  end

let create ~cap ~block_size =
  let pool = Bufpool.create block_size in
  {
    clean = Lru.create ~on_evict:(fun _ e -> release pool e) ~cap ();
    dirty = Hashtbl.create 64;
    pool;
    cap;
    n_hits = 0;
    n_misses = 0;
  }

let capacity t = t.cap
let pool t = t.pool
let take t = Bufpool.take t.pool
let give t b = Bufpool.give t.pool b

let find t k =
  match Hashtbl.find_opt t.dirty k with
  | Some e ->
      t.n_hits <- t.n_hits + 1;
      Some e.data
  | None -> (
      match Lru.find t.clean k with
      | Some e ->
          t.n_hits <- t.n_hits + 1;
          Some e.data
      | None -> None)

let entry_of t k =
  match Hashtbl.find_opt t.dirty k with
  | Some e -> Some e
  | None -> Lru.peek t.clean k

let addr_of t k =
  match entry_of t k with Some e -> e.addr | None -> raise Not_found

let is_dirty t k = Hashtbl.mem t.dirty k

(* An entry takes [data] (backed by [buf]); the buffer it held before
   goes back to the pool unless it is the same one. *)
let replace_data t e data buf crc =
  if e.data != data then begin
    release t.pool e;
    e.data <- data;
    e.buf <- buf
  end;
  e.crc <- crc

let insert_clean t k ~addr ~crc data buf =
  if Hashtbl.mem t.dirty k then invalid_arg "Bcache.put_clean: entry is dirty";
  match Lru.peek t.clean k with
  | Some e ->
      replace_data t e data buf crc;
      e.addr <- addr;
      Lru.add t.clean k e
  | None -> Lru.add t.clean k { data; buf; addr; crc }

let insert_dirty t k ~old_addr ~crc data buf =
  match Hashtbl.find_opt t.dirty k with
  | Some e -> replace_data t e data buf crc
  | None -> (
      match Lru.peek t.clean k with
      | Some e ->
          Lru.remove t.clean k;
          replace_data t e data buf crc;
          Hashtbl.replace t.dirty k e
      | None -> Hashtbl.replace t.dirty k { data; buf; addr = old_addr; crc })

let put_clean t k ~addr ?(crc = -1) data = insert_clean t k ~addr ~crc data Bufpool.none
let put_dirty t k ?(old_addr = -1) ?(crc = -1) data = insert_dirty t k ~old_addr ~crc data Bufpool.none
let put_clean_buf t k ~addr ~crc b = insert_clean t k ~addr ~crc (Bufpool.bytes b) b
let put_dirty_buf t k ~old_addr ~crc b = insert_dirty t k ~old_addr ~crc (Bufpool.bytes b) b

let mark_dirty t k =
  if not (Hashtbl.mem t.dirty k) then begin
    match Lru.peek t.clean k with
    | Some e ->
        Lru.remove t.clean k;
        Hashtbl.replace t.dirty k e
    | None -> invalid_arg "Bcache.mark_dirty: not cached"
  end

let mark_modified t k =
  mark_dirty t k;
  (Hashtbl.find t.dirty k).crc <- -1

let crc t k data =
  match entry_of t k with Some e when e.data == data -> e.crc | _ -> -1

let set_crc t k data crc =
  match entry_of t k with Some e when e.data == data -> e.crc <- crc | _ -> ()

let mark_flushed t k ~addr =
  match Hashtbl.find_opt t.dirty k with
  | None -> invalid_arg "Bcache.mark_flushed: not dirty"
  | Some e ->
      Hashtbl.remove t.dirty k;
      e.addr <- addr;
      Lru.add t.clean k e

let set_addr t k addr =
  match entry_of t k with
  | Some e -> e.addr <- addr
  | None -> invalid_arg "Bcache.set_addr: not cached"

let drop t k =
  (match Hashtbl.find_opt t.dirty k with
  | Some e ->
      Hashtbl.remove t.dirty k;
      release t.pool e
  | None -> ());
  match Lru.peek t.clean k with
  | Some e ->
      Lru.remove t.clean k;
      release t.pool e
  | None -> ()

let drop_inum t inum =
  let doomed = ref [] in
  Hashtbl.iter (fun (i, bk) _ -> if i = inum then doomed := (i, bk) :: !doomed) t.dirty;
  Lru.iter (fun (i, bk) _ -> if i = inum then doomed := (i, bk) :: !doomed) t.clean;
  List.iter (drop t) !doomed

let dirty_count t = Hashtbl.length t.dirty
let clean_count t = Lru.length t.clean

let iter_dirty t f = Hashtbl.iter (fun k _ -> f k) t.dirty

let dirty_entries t =
  Hashtbl.fold (fun k e acc -> (k, e.data, e.addr) :: acc) t.dirty []

let invalidate_clean t =
  Lru.iter (fun _ e -> release t.pool e) t.clean;
  Lru.clear t.clean

let buffers t =
  let held = ref [] in
  let note _ e = if e.buf != Bufpool.none then held := e.buf :: !held in
  Hashtbl.iter note t.dirty;
  Lru.iter note t.clean;
  !held

let hits t = t.n_hits
let misses t = t.n_misses
let note_miss t = t.n_misses <- t.n_misses + 1
