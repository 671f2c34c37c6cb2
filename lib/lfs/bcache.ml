open Util

type key = int * Bkey.t

(* [crc] is the CRC-32 the bytes were last read or flushed with, or -1
   once they may have changed (or were never summed). *)
type entry = { mutable data : Bytes.t; mutable addr : int; mutable crc : int }

type t = {
  clean : (key, entry) Lru.t;
  dirty : (key, entry) Hashtbl.t;
  cap : int;
  mutable n_hits : int;
  mutable n_misses : int;
}

let create ~cap =
  { clean = Lru.create ~cap (); dirty = Hashtbl.create 64; cap; n_hits = 0; n_misses = 0 }

let capacity t = t.cap

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

let put_clean t k ~addr ?(crc = -1) data =
  match Hashtbl.find_opt t.dirty k with
  | Some _ -> invalid_arg "Bcache.put_clean: entry is dirty"
  | None -> Lru.add t.clean k { data; addr; crc }

let put_dirty t k ?(old_addr = -1) ?(crc = -1) data =
  match Hashtbl.find_opt t.dirty k with
  | Some e ->
      e.data <- data;
      e.crc <- crc
  | None -> (
      match Lru.peek t.clean k with
      | Some e ->
          Lru.remove t.clean k;
          e.data <- data;
          e.crc <- crc;
          Hashtbl.replace t.dirty k e
      | None -> Hashtbl.replace t.dirty k { data; addr = old_addr; crc })

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
  Hashtbl.remove t.dirty k;
  Lru.remove t.clean k

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

let invalidate_clean t = Lru.clear t.clean

let hits t = t.n_hits
let misses t = t.n_misses
let note_miss t = t.n_misses <- t.n_misses + 1
