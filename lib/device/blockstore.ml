(* Blocks live in pages of [page_blocks] consecutive blocks, allocated on
   first write to any of them and overwritten in place. Pages rather
   than a buffer per block: a 4 KB block is above the minor heap's size
   limit, so a fresh buffer per block write would be a major-heap
   allocation every time. [written] is the page's bitmap (bit i = block
   i of the page). Unwritten slots always hold zeros, so a read blits a
   page's range whatever its bitmap says. The last page of a device is
   cut to the device's end. *)
let page_blocks = 32

type page = { data : Bytes.t; mutable written : int }

module Pages = Hashtbl.Make (Int)

type t = { block_size : int; nblocks : int; pages : page Pages.t; mutable nwritten : int }

let create ~block_size ~nblocks =
  if block_size <= 0 || nblocks <= 0 then invalid_arg "Blockstore.create";
  { block_size; nblocks; pages = Pages.create 64; nwritten = 0 }

let block_size t = t.block_size
let nblocks t = t.nblocks

let check_range t blk count =
  if blk < 0 || count <= 0 || blk + count > t.nblocks then
    invalid_arg
      (Printf.sprintf "Blockstore: range [%d,%d) outside device of %d blocks" blk
         (blk + count) t.nblocks)

let rec popcount n = if n = 0 then 0 else 1 + popcount (n land (n - 1))

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

let read_page t pi lo n dst dst_off =
  let bs = t.block_size in
  match Pages.find t.pages pi with
  | p -> Bytes.blit p.data (lo * bs) dst dst_off (n * bs)
  | exception Not_found -> Bytes.fill dst dst_off (n * bs) '\000'

let write_page t pi lo n src src_off =
  let p =
    match Pages.find t.pages pi with
    | p -> p
    | exception Not_found ->
        let len = min page_blocks (t.nblocks - (pi * page_blocks)) in
        let p = { data = Bytes.make (len * t.block_size) '\000'; written = 0 } in
        Pages.add t.pages pi p;
        p
  in
  Bytes.blit src src_off p.data (lo * t.block_size) (n * t.block_size);
  let mask = ((1 lsl n) - 1) lsl lo in
  t.nwritten <- t.nwritten + popcount (mask land lnot p.written);
  p.written <- p.written lor mask

(* The into/from pair is the zero-copy discipline: callers hand a view
   (buffer + offset) and blocks move once, between the store's pages
   and that view. [read]/[write] are the allocating conveniences on
   top. *)
let read_into t ~blk ~count ~dst ~dst_off =
  check_range t blk count;
  if dst_off < 0 || dst_off + (count * t.block_size) > Bytes.length dst then
    invalid_arg "Blockstore.read_into: view outside buffer";
  iter_pages t ~blk ~count dst dst_off read_page

let read t ~blk ~count =
  let out = Bytes.create (count * t.block_size) in
  read_into t ~blk ~count ~dst:out ~dst_off:0;
  out

let write_from t ~blk ~src ~src_off ~count =
  check_range t blk count;
  if src_off < 0 || src_off + (count * t.block_size) > Bytes.length src then
    invalid_arg "Blockstore.write_from: view outside buffer";
  iter_pages t ~blk ~count src src_off write_page

let write t ~blk data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Blockstore.write: length must be a positive multiple of block size";
  write_from t ~blk ~src:data ~src_off:0 ~count:(len / t.block_size)

let copy t =
  let dup = Pages.create (max 64 (Pages.length t.pages)) in
  Pages.iter
    (fun pi p -> Pages.replace dup pi { data = Bytes.copy p.data; written = p.written })
    t.pages;
  { t with pages = dup }

let is_written t blk =
  blk >= 0
  && blk < t.nblocks
  &&
  match Pages.find_opt t.pages (blk / page_blocks) with
  | Some p -> p.written land (1 lsl (blk mod page_blocks)) <> 0
  | None -> false

let written_blocks t = t.nwritten

let erase t =
  Pages.reset t.pages;
  t.nwritten <- 0

let erase_block t blk =
  let pi = blk / page_blocks in
  match Pages.find_opt t.pages pi with
  | Some p when blk >= 0 ->
      let slot = blk - (pi * page_blocks) in
      let bit = 1 lsl slot in
      if p.written land bit <> 0 then begin
        p.written <- p.written land lnot bit;
        t.nwritten <- t.nwritten - 1;
        if p.written = 0 then Pages.remove t.pages pi
        else Bytes.fill p.data (slot * t.block_size) t.block_size '\000'
      end
  | _ -> ()
