open Util

(* A key packs (inum, Bkey) into one int: the inum above [low_bits], the
   block below. Data lbns keep their value (at most [max_lbn]); the
   negative summary codes of indirect blocks map above it, to
   [max_lbn - code], so L1, L2 and L3 keep their Bkey order. *)
type key = int

let low_bits = 29
let low_mask = (1 lsl low_bits) - 1
let max_lbn = Bkey.max_encodable_lbn

let key inum bkey =
  if inum < 0 || inum > max_int lsr low_bits then invalid_arg "Bcache.key: inum out of range";
  let c = Bkey.encode bkey in
  (inum lsl low_bits) lor if c >= 0 then c else max_lbn - c

let inum k = k lsr low_bits

let bkey k =
  let low = k land low_mask in
  Bkey.decode (if low <= max_lbn then low else max_lbn - low)

(* The low bits of the first L1 and L2 key and of L3; [L1 p] sits at
   [l1 + p], [L2 q] at [l2 + q]. *)
let l1 = max_lbn - Bkey.encode (Bkey.L1 0)
let l2 = max_lbn - Bkey.encode (Bkey.L2 0)
let l3 = max_lbn - Bkey.encode Bkey.L3

(* the Bkey level of a key, without decoding it *)
let level k =
  let low = k land low_mask in
  if low < l1 then 0 else if low < l2 then 1 else if low < l3 then 2 else 3

(* [Bkey.parent] on packed keys, with no allocation: the parent is the
   key of the indirect block holding the pointer, or [none] when the
   pointer is in the inode, and the slot is its index in that block or
   the inode's pointer slot ({!Inode.pointer}). *)
let none = -1

let parent ~ppb k =
  let file = k land lnot low_mask and low = k land low_mask in
  if low < l1 then if low < Bkey.ndirect then none else file lor (l1 + ((low - Bkey.ndirect) / ppb))
  else if low < l2 then if low = l1 then none else file lor (l2 + ((low - l1 - 1) / ppb))
  else if low < l3 then if low = l2 then none else file lor l3
  else none

let slot ~ppb k =
  let low = k land low_mask in
  if low < l1 then if low < Bkey.ndirect then low else (low - Bkey.ndirect) mod ppb
  else if low < l2 then if low = l1 then Bkey.ndirect else (low - l1 - 1) mod ppb
  else if low < l3 then if low = l2 then Bkey.ndirect + 1 else low - l2 - 1
  else Bkey.ndirect + 2

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Hashtbl indexes by the low bits of the hash: multiply to carry
     every key bit upward, then fold the high half down, so the inum
     reaches the bucket index of any table size. *)
  let hash k =
    let h = k * 0x1E3779B97F4A7C15 in
    h lxor (h lsr 32)
end)

(* [crc] is the CRC-32 the bytes were last read or flushed with, or -1
   once they may have changed (or were never summed). [buf] is the
   pooled buffer behind [data] while the entry is in the cache, and
   [Bufpool.none] once it left: that is how a {!handle} knows it is
   stale.

   [prev]/[next] thread the entry into the clean LRU ring or the dirty
   ring, as [dirty] says; [fprev]/[fnext] into its file's list, which
   starts at [files.(inum)] and ends at [nil]. *)
type entry = {
  key : key;
  mutable data : Bytes.t;
  mutable buf : Bufpool.buf;
  mutable addr : int;
  mutable crc : int;
  mutable dirty : bool;
  mutable prev : entry;
  mutable next : entry;
  mutable fprev : entry;
  mutable fnext : entry;
}

let sentinel () =
  let rec s =
    { key = -1; data = Bytes.empty; buf = Bufpool.none; addr = -1; crc = -1; dirty = false;
      prev = s; next = s; fprev = s; fnext = s }
  in
  s

(* ends every file list; its own links are never written *)
let nil = sentinel ()

type t = {
  table : entry Tbl.t;
  clean_ring : entry;  (* sentinel: [next] most, [prev] least recently used *)
  dirty_ring : entry;  (* sentinel *)
  mutable files : entry array;  (* by inum: first entry of the file, or [nil] *)
  pool : Bufpool.t;
  cap : int;
  mutable n_clean : int;
  mutable n_dirty : int;
  mutable n_hits : int;
  mutable n_misses : int;
}

let create ~cap ~block_size =
  if cap <= 0 then invalid_arg "Bcache.create: cap must be positive";
  { table = Tbl.create 64; clean_ring = sentinel (); dirty_ring = sentinel ();
    files = Array.make 64 nil; pool = Bufpool.create block_size; cap;
    n_clean = 0; n_dirty = 0; n_hits = 0; n_misses = 0 }

let pool t = t.pool
let take t = Bufpool.take t.pool
let give t b = Bufpool.give t.pool b

let release t e =
  Bufpool.give t.pool e.buf;
  e.buf <- Bufpool.none

(* ---------- rings and file lists ---------- *)

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

(* Puts an entry that is in no ring at the front of the clean or the
   dirty ring, as [dirty] says, evicting the least recently used clean
   entry when the clean ring is full. *)
let rec push t e ~dirty =
  let ring = if dirty then t.dirty_ring else t.clean_ring in
  if dirty then t.n_dirty <- t.n_dirty + 1
  else begin
    if t.n_clean >= t.cap then remove t t.clean_ring.prev;
    t.n_clean <- t.n_clean + 1
  end;
  e.dirty <- dirty;
  e.prev <- ring;
  e.next <- ring.next;
  ring.next.prev <- e;
  ring.next <- e

and pull t e =
  unlink e;
  if e.dirty then t.n_dirty <- t.n_dirty - 1 else t.n_clean <- t.n_clean - 1

(* Takes an entry out of the table, its ring and its file's list, and
   gives its buffer back. *)
and remove t e =
  Tbl.remove t.table e.key;
  pull t e;
  if e.fprev == nil then t.files.(inum e.key) <- e.fnext else e.fprev.fnext <- e.fnext;
  if e.fnext != nil then e.fnext.fprev <- e.fprev;
  release t e

let move t e ~dirty =
  pull t e;
  push t e ~dirty

let iter_ring ring f =
  let rec go e =
    if e != ring then begin
      let next = e.next in
      f e;
      go next
    end
  in
  go ring.next

let add t k ~dirty data buf addr crc =
  let i = inum k in
  if i >= Array.length t.files then begin
    let files = Array.make (max (i + 1) (2 * Array.length t.files)) nil in
    Array.blit t.files 0 files 0 (Array.length t.files);
    t.files <- files
  end;
  let first = t.files.(i) in
  let e =
    { key = k; data; buf; addr; crc; dirty; prev = nil; next = nil; fprev = nil; fnext = first }
  in
  if first != nil then first.fprev <- e;
  t.files.(i) <- e;
  Tbl.add t.table k e;
  push t e ~dirty

(* ---------- lookups and insertions ---------- *)

let miss = Bytes.create 0

let find t k =
  match Tbl.find t.table k with
  | e ->
      t.n_hits <- t.n_hits + 1;
      if (not e.dirty) && t.clean_ring.next != e then move t e ~dirty:false;
      e.data
  | exception Not_found -> miss

let addr_of t k = (Tbl.find t.table k).addr
let is_dirty t k = match Tbl.find t.table k with e -> e.dirty | exception Not_found -> false

(* An entry takes buffer [b]; the buffer it held before goes back to
   the pool unless it is the same one. *)
let replace_data t e b crc =
  if e.buf != b then begin
    release t e;
    e.data <- Bufpool.bytes b;
    e.buf <- b
  end;
  e.crc <- crc

let put_clean_buf t k ~addr ~crc b =
  match Tbl.find t.table k with
  | e ->
      if e.dirty then invalid_arg "Bcache.put_clean_buf: entry is dirty";
      replace_data t e b crc;
      e.addr <- addr;
      move t e ~dirty:false
  | exception Not_found -> add t k ~dirty:false (Bufpool.bytes b) b addr crc

let put_dirty_buf t k ~old_addr ~crc b =
  match Tbl.find t.table k with
  | e ->
      if not e.dirty then move t e ~dirty:true;
      replace_data t e b crc
  | exception Not_found -> add t k ~dirty:true (Bufpool.bytes b) b old_addr crc

let dirtied t k =
  match Tbl.find t.table k with
  | e ->
      if not e.dirty then move t e ~dirty:true;
      e
  | exception Not_found -> invalid_arg "Bcache.mark_dirty: not cached"

let mark_dirty t k = ignore (dirtied t k)
let mark_modified t k = (dirtied t k).crc <- -1

(* ---------- handles ---------- *)

type handle = entry

let no_handle = nil

(* A handle answers while its entry is in the cache and still holds
   [data]: an entry that left gave its buffer back. *)
let holds (e : handle) data = e.buf != Bufpool.none && e.data == data
let handle_crc e data = if holds e data then e.crc else -1
let set_handle_crc e data crc = if holds e data then e.crc <- crc

let mark_written t e data ~crc ~addr =
  if e.buf != Bufpool.none then begin
    e.addr <- addr;
    if e.dirty && e.data == data && e.crc = crc then move t e ~dirty:false
  end

let crc t k data = match Tbl.find t.table k with e -> handle_crc e data | exception Not_found -> -1

let mark_flushed t k ~addr =
  match Tbl.find t.table k with
  | e when e.dirty ->
      e.addr <- addr;
      move t e ~dirty:false
  | _ | (exception Not_found) -> invalid_arg "Bcache.mark_flushed: not dirty"

let set_addr t k addr =
  match Tbl.find t.table k with
  | e -> e.addr <- addr
  | exception Not_found -> invalid_arg "Bcache.set_addr: not cached"

let drop t k = match Tbl.find t.table k with e -> remove t e | exception Not_found -> ()

let drop_inum t i =
  let rec go e =
    if e != nil then begin
      let next = e.fnext in
      remove t e;
      go next
    end
  in
  if i >= 0 && i < Array.length t.files then go t.files.(i)

let dirty_count t = t.n_dirty
let clean_count t = t.n_clean
let iter_dirty t f = iter_ring t.dirty_ring (fun e -> f e.key e.data e.addr)

let iter_dirty_sorted t ~level:l f =
  let n = ref 0 in
  iter_ring t.dirty_ring (fun e -> if level e.key = l then incr n);
  let sorted = Array.make !n nil in
  n := 0;
  iter_ring t.dirty_ring (fun e ->
      if level e.key = l then begin
        sorted.(!n) <- e;
        incr n
      end);
  Array.sort (fun a b -> Int.compare a.key b.key) sorted;
  Array.iter (fun e -> f e e.key e.data e.addr) sorted

let invalidate_clean t = iter_ring t.clean_ring (remove t)

let buffers t =
  let held = ref [] in
  let note e = held := e.buf :: !held in
  iter_ring t.dirty_ring note;
  iter_ring t.clean_ring note;
  !held

let hits t = t.n_hits
let misses t = t.n_misses
let note_miss t = t.n_misses <- t.n_misses + 1
