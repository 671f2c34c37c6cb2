(* Blocks live in pages of [page_blocks] consecutive slots. A page is a
   buffer shared copy-on-write by every directory slot that holds it, in
   this store or another: [refs] counts those holders, and a page with
   more than one is never written — a store about to write one takes a
   private page first and copies over only its own written slots that
   the write does not cover. Which slots of a page hold data is the
   store's own business ([bits] in the directory), so a shared or
   recycled page never needs zeroing: a read returns zeros for a slot
   whose bit is clear, whatever the page holds there. A whole page of
   written zeros holds the one [zero_page] instead of a page of its
   own. Pages rather than a buffer per block: a 4 KB block is above the
   minor heap's size limit, so a fresh buffer per block write would be
   a major-heap allocation every time. *)
let page_blocks = 32

type page = { data : Bytes.t; mutable refs : int }

(* The zero page: a whole page of written zeros, which any directory
   slot of any store may hold. A whole-page write of zeros (a staging
   line's tail) takes it instead of a private page, so a volume it is
   shared onto keeps no page of the disk's alive. It is known by
   identity only: every reader fills zeros for it and a write into it
   takes a private page, filling the carried slots, so its bytes are
   never read and it has none (a stray blit into it or out of it fails
   loudly). It is never released to a free list, and its [refs] is
   never touched or read, so one value serves every block size and the
   stores of every domain at once. *)
let zero_page = { data = Bytes.empty; refs = 0 }

(* Two-level directory: leaf [i] covers pages [i * leaf_pages] up to
   [(i + 1) * leaf_pages]. [bits.(j)] is this store's written bitmap of
   page j of the leaf (bit k = slot k) and is 0 exactly when
   [pages.(j) == no_page]. A leaf is allocated on the first write under
   it; until then the directory points at [empty_leaf], which reads as
   unwritten and is never mutated. A flat page array would cost a word
   per page of a sparse 9 TB jukebox; a leaf costs two words per page of
   a 32 MB range that has been written. *)
let leaf_pages = 256

type leaf = { pages : page array; bits : int array }

let no_page = { data = Bytes.empty; refs = 0 }
let empty_leaf = { pages = Array.make leaf_pages no_page; bits = Array.make leaf_pages 0 }

(* Pages whose last holder was this store wait on [free] for its next
   private page: a fetch landing that shares a volume's pages releases
   the cache line's own, and the log's next write into a shared page
   takes one back. The default cap (8 MB of 4 KB blocks, the most a
   cache disk holds in the archive benchmark) bounds what an erased
   volume can hoard. *)
let default_free_cap = 64

type t = {
  block_size : int;
  nblocks : int;
  dir : leaf array;
  free_cap : int;
  mutable nwritten : int;
  mutable free : page list;
  mutable nfree : int;
  mutable taken : int;
  mutable copied : int;
}

let make ~free_cap ~block_size ~nblocks =
  if block_size <= 0 || nblocks <= 0 then invalid_arg "Blockstore.create";
  let npages = (nblocks + page_blocks - 1) / page_blocks in
  {
    block_size;
    nblocks;
    dir = Array.make ((npages + leaf_pages - 1) / leaf_pages) empty_leaf;
    free_cap;
    nwritten = 0;
    free = [];
    nfree = 0;
    taken = 0;
    copied = 0;
  }

let create ~block_size ~nblocks = make ~free_cap:default_free_cap ~block_size ~nblocks
let image ~block_size ~nblocks = make ~free_cap:0 ~block_size ~nblocks
let block_size t = t.block_size
let nblocks t = t.nblocks
let pages_taken t = t.taken
let blocks_copied t = t.copied

let check_range t blk count =
  if blk < 0 || count <= 0 || blk + count > t.nblocks then
    invalid_arg
      (Printf.sprintf "Blockstore: range [%d,%d) outside device of %d blocks" blk
         (blk + count) t.nblocks)

let rec popcount n = if n = 0 then 0 else 1 + popcount (n land (n - 1))

(* length of the run of set (resp. clear) bits starting at bit 0 *)
let rec ones b = if b land 1 = 0 then 0 else 1 + ones (b lsr 1)
let rec zeros b = if b land 1 <> 0 then 0 else 1 + zeros (b lsr 1)

let slot_mask lo n = ((1 lsl n) - 1) lsl lo
let full_page = slot_mask 0 page_blocks
let leaf_of t pi = t.dir.(pi / leaf_pages)
let index pi = pi land (leaf_pages - 1)

let leaf_for_write t pi =
  let l = leaf_of t pi in
  if l != empty_leaf then l
  else begin
    let l = { pages = Array.make leaf_pages no_page; bits = Array.make leaf_pages 0 } in
    t.dir.(pi / leaf_pages) <- l;
    l
  end

let take t =
  t.taken <- t.taken + 1;
  match t.free with
  | p :: rest ->
      t.free <- rest;
      t.nfree <- t.nfree - 1;
      p.refs <- 1;
      p
  | [] -> { data = Bytes.create (page_blocks * t.block_size); refs = 1 }

let hold p = if p != zero_page then p.refs <- p.refs + 1

let release t p =
  if p != zero_page then begin
    p.refs <- p.refs - 1;
    if p.refs = 0 && t.nfree < t.free_cap then begin
      t.free <- p :: t.free;
      t.nfree <- t.nfree + 1
    end
  end

(* Carries each run of set bits of [bits] (a slot bitmap) from page [p]
   to the same place in buffer [dst]: a blit, or a fill from the zero
   page. *)
let rec carry_slots t p dst bits slot =
  if bits <> 0 then begin
    let bs = t.block_size in
    let z = zeros bits in
    let bits = bits lsr z and slot = slot + z in
    let n = ones bits in
    if p == zero_page then Bytes.fill dst (slot * bs) (n * bs) '\000'
    else Bytes.blit p.data (slot * bs) dst (slot * bs) (n * bs);
    carry_slots t p dst (bits lsr n) (slot + n)
  end

(* Page [pi] becomes a whole page of written zeros: it holds the zero
   page, and its own page, if any, is let go. *)
let hold_zero t pi =
  let l = leaf_for_write t pi in
  let j = index pi in
  let w = l.bits.(j) in
  if w <> 0 then release t l.pages.(j);
  l.pages.(j) <- zero_page;
  t.nwritten <- t.nwritten + page_blocks - popcount w;
  l.bits.(j) <- full_page

(* The page of [pi] made ready for a write of slots [lo, lo + n): a
   private page, holding the store's other written slots (a carry-over
   that counts as copied). Marks the slots written. *)
let writable t pi lo n =
  let l = leaf_for_write t pi in
  let j = index pi in
  let mask = slot_mask lo n in
  let w = l.bits.(j) in
  let p =
    if w = 0 then begin
      let p = take t in
      l.pages.(j) <- p;
      p
    end
    else
      let p = l.pages.(j) in
      if p != zero_page && p.refs = 1 then p
      else begin
        let q = take t in
        let carried = w land lnot mask in
        carry_slots t p q.data carried 0;
        t.copied <- t.copied + popcount carried;
        release t p;
        l.pages.(j) <- q;
        q
      end
  in
  t.nwritten <- t.nwritten + popcount (mask land lnot w);
  l.bits.(j) <- w lor mask;
  p

(* Calls [f t page_index first_slot slot_count buf buf_off] for each
   page the block range [blk, blk + count) touches, [buf_off] being
   where that part of the range sits in the caller's view. [f] is a
   top-level function, so no closure is built per call. *)
let iter_pages t ~blk ~count buf buf_off f =
  let stop = blk + count in
  let b = ref blk in
  while !b < stop do
    let pi = !b / page_blocks in
    let lo = !b - (pi * page_blocks) in
    let n = min (page_blocks - lo) (stop - !b) in
    f t pi lo n buf (buf_off + ((!b - blk) * t.block_size));
    b := !b + n
  done

(* Slots [lo, lo + n) of a page whose bitmap, shifted to [lo], is [w]:
   each run of written slots is blitted, each run of unwritten ones
   zero-filled. *)
let rec read_runs bs data lo w i n dst dst_off =
  if i < n then begin
    let set = (w lsr i) land 1 in
    let j = ref (i + 1) in
    while !j < n && (w lsr !j) land 1 = set do
      incr j
    done;
    let len = (!j - i) * bs in
    if set = 1 then Bytes.blit data ((lo + i) * bs) dst (dst_off + (i * bs)) len
    else Bytes.fill dst (dst_off + (i * bs)) len '\000';
    read_runs bs data lo w !j n dst dst_off
  end

let read_page t pi lo n dst dst_off =
  let bs = t.block_size in
  let l = leaf_of t pi in
  let j = index pi in
  let all = (1 lsl n) - 1 in
  let w = (l.bits.(j) lsr lo) land all in
  let p = l.pages.(j) in
  if w = 0 || p == zero_page then Bytes.fill dst dst_off (n * bs) '\000'
  else if w = all then Bytes.blit p.data (lo * bs) dst dst_off (n * bs)
  else read_runs bs p.data lo w 0 n dst dst_off

(* A whole page of zeros takes the zero page; the check runs on
   whole-page writes only. *)
let write_page t pi lo n src src_off =
  let bs = t.block_size in
  if n = page_blocks && Util.Bytesx.is_zero_sub src src_off (n * bs) then hold_zero t pi
  else
    let p = writable t pi lo n in
    Bytes.blit src src_off p.data (lo * bs) (n * bs)

(* The into/from pair is the zero-copy discipline: callers hand a view
   (buffer + offset) and blocks move once, between the store's pages
   and that view. *)
let read_into t ~blk ~count ~dst ~dst_off =
  check_range t blk count;
  if dst_off < 0 || dst_off + (count * t.block_size) > Bytes.length dst then
    invalid_arg "Blockstore.read_into: view outside buffer";
  iter_pages t ~blk ~count dst dst_off read_page

let write_from t ~blk ~src ~src_off ~count =
  check_range t blk count;
  if src_off < 0 || src_off + (count * t.block_size) > Bytes.length src then
    invalid_arg "Blockstore.write_from: view outside buffer";
  t.copied <- t.copied + count;
  iter_pages t ~blk ~count src src_off write_page

let write t ~blk data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Blockstore.write: length must be a positive multiple of block size";
  write_from t ~blk ~src:data ~src_off:0 ~count:(len / t.block_size)

(* Slots [lo, lo + n) of [dst]'s page [pi] take [src]'s page [spi] if
   every corresponding source slot is written and the destination page
   holds no other written slot, or already is that page; false leaves
   both stores untouched. *)
let share_page ~src ~spi ~dst ~pi ~lo ~n =
  let mask = slot_mask lo n in
  let sl = leaf_of src spi in
  let sj = index spi in
  let p = sl.pages.(sj) in
  let j = index pi in
  let dl = leaf_of dst pi in
  let w = dl.bits.(j) in
  let held = dl.pages.(j) in
  if sl.bits.(sj) land mask <> mask || (held != p && w land lnot mask <> 0) then false
  else begin
    let l = leaf_for_write dst pi in
    if held != p then begin
      if w <> 0 then release dst held;
      hold p;
      l.pages.(j) <- p
    end;
    dst.nwritten <- dst.nwritten + popcount (mask land lnot w);
    l.bits.(j) <- w lor mask;
    true
  end

(* The page of [src]'s block [s] if the block is written, else the
   zero page: an unwritten block reads as zeros. *)
let data_page src s =
  let spi = s / page_blocks in
  let sl = leaf_of src spi in
  let sj = index spi in
  if sl.bits.(sj) land (1 lsl (s - (spi * page_blocks))) <> 0 then sl.pages.(sj) else zero_page

(* Slots [lo, lo + n) of [dst]'s page [pi] as a copy of [src]'s blocks
   from [sb]: written source blocks are blitted, unwritten ones land as
   written zeros — what a write of the bytes read would leave. *)
let copy_page ~src ~sb ~dst ~pi ~lo ~n =
  let q = writable dst pi lo n in
  let bs = dst.block_size in
  dst.copied <- dst.copied + n;
  for i = 0 to n - 1 do
    let s = sb + i in
    let p = data_page src s in
    if p == zero_page then Bytes.fill q.data ((lo + i) * bs) bs '\000'
    else Bytes.blit p.data ((s mod page_blocks) * bs) q.data ((lo + i) * bs) bs
  done

let share ~src ~src_blk ~dst ~dst_blk ~count =
  check_range src src_blk count;
  check_range dst dst_blk count;
  if src.block_size <> dst.block_size then invalid_arg "Blockstore.share: block sizes differ";
  if src == dst && src_blk < dst_blk + count && dst_blk < src_blk + count then
    invalid_arg "Blockstore.share: overlapping ranges in one store";
  let aligned = (src_blk - dst_blk) mod page_blocks = 0 in
  let stop = dst_blk + count in
  let b = ref dst_blk in
  while !b < stop do
    let pi = !b / page_blocks in
    let lo = !b - (pi * page_blocks) in
    let n = min (page_blocks - lo) (stop - !b) in
    let sb = src_blk + (!b - dst_blk) in
    if not (aligned && share_page ~src ~spi:(sb / page_blocks) ~dst ~pi ~lo ~n) then
      copy_page ~src ~sb ~dst ~pi ~lo ~n;
    b := !b + n
  done

let copy t =
  let dir =
    Array.map
      (fun l ->
        if l == empty_leaf then l
        else begin
          Array.iteri (fun j p -> if l.bits.(j) <> 0 then hold p) l.pages;
          { pages = Array.copy l.pages; bits = Array.copy l.bits }
        end)
      t.dir
  in
  { t with dir; free = []; nfree = 0; taken = 0; copied = 0 }

let is_written t blk =
  blk >= 0
  && blk < t.nblocks
  &&
  let pi = blk / page_blocks in
  (leaf_of t pi).bits.(index pi) land (1 lsl (blk - (pi * page_blocks))) <> 0

let written_blocks t = t.nwritten

(* Leaves stay allocated: a store erased and filled again (a recycled
   fetch image, a reclaimed volume) allocates no directory. *)
let erase t =
  Array.iter
    (fun l ->
      if l != empty_leaf then
        for j = 0 to leaf_pages - 1 do
          if l.bits.(j) <> 0 then begin
            release t l.pages.(j);
            l.pages.(j) <- no_page;
            l.bits.(j) <- 0
          end
        done)
    t.dir;
  t.nwritten <- 0

let erase_block t blk =
  if blk >= 0 && blk < t.nblocks then begin
    let pi = blk / page_blocks in
    let l = leaf_of t pi in
    let j = index pi in
    let bit = 1 lsl (blk - (pi * page_blocks)) in
    let w = l.bits.(j) in
    if w land bit <> 0 then begin
      l.bits.(j) <- w land lnot bit;
      t.nwritten <- t.nwritten - 1;
      if w = bit then begin
        release t l.pages.(j);
        l.pages.(j) <- no_page
      end
    end
  end
