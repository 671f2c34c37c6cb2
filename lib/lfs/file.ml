open Util

let bs fs = (Fs.param fs).Param.block_size

let nblocks fs ino = (ino.Inode.size + bs fs - 1) / bs fs

let read fs ino ~off ~len =
  Fs.charge_cpu fs (Fs.param fs).Param.cpu.syscall;
  if off < 0 || len < 0 then invalid_arg "File.read";
  let len = max 0 (min len (ino.Inode.size - off)) in
  let out = Bytes.create len in
  let bsz = bs fs in
  let pos = ref 0 in
  while !pos < len do
    let fileoff = off + !pos in
    let lbn = fileoff / bsz in
    let boff = fileoff mod bsz in
    let n = min (bsz - boff) (len - !pos) in
    (match Fs.get_block fs ino (Bkey.Data lbn) with
    | Some data -> Bytes.blit data boff out !pos n
    | None -> Bytes.fill out !pos n '\000');
    pos := !pos + n
  done;
  if len > 0 then Fs.touch_atime fs ino.Inode.inum;
  out

let write fs ino ~off data =
  Fs.charge_cpu fs (Fs.param fs).Param.cpu.syscall;
  if off < 0 then invalid_arg "File.write";
  let len = Bytes.length data in
  let bsz = bs fs in
  let pos = ref 0 in
  while !pos < len do
    let fileoff = off + !pos in
    let lbn = fileoff / bsz in
    let boff = fileoff mod bsz in
    let n = min (bsz - boff) (len - !pos) in
    if n = bsz then begin
      (* whole-block overwrite: no read-modify-write needed *)
      Fs.put_block fs ino (Bkey.Data lbn) ~off:!pos data
    end
    else begin
      let block = Fs.get_block_for_write fs ino (Bkey.Data lbn) in
      Bytes.blit data !pos block boff n
    end;
    pos := !pos + n;
    (* keep the size current so flushes mid-write record valid state,
       and flush segment-by-segment so a huge write can never pile up
       more dirty data than the log's reserve absorbs *)
    if off + !pos > ino.Inode.size then ino.Inode.size <- off + !pos;
    Fs.maybe_flush fs
  done;
  ino.Inode.mtime <- Fs.now fs;
  if Obs.Decision.enabled () then
    Obs.Decision.touch_file ~now:(Fs.now fs) ~write:true ino.Inode.inum;
  Fs.mark_inode_dirty fs ino;
  Fs.maybe_flush fs

(* Visit the pointers of indirect block [bkey] from a private copy:
   visiting a child inserts into the cache (and the visitor may drop
   entries), which can evict the parent and recycle its buffer mid-walk.
   False when the block is a hole. *)
let iter_pointers map ino bkey f =
  match Bmap.get map ino (Bcache.key ino.Inode.inum bkey) with
  | pdata when pdata == Bcache.miss -> false
  | pdata ->
      let b = Bcache.take map.Bmap.cache in
      let ptrs = Bufpool.bytes b in
      Bytes.blit pdata 0 ptrs 0 (Bytes.length ptrs);
      for slot = 0 to (Bytes.length ptrs / 4) - 1 do
        let child = Bytesx.get_i32 ptrs (slot * 4) in
        if child <> -1 then f slot child
      done;
      Bcache.give map.Bmap.cache b;
      true

(* Walk the pointer tree bottom-up so children are visited before the
   indirect blocks that point at them. *)
let iter_assigned_blocks map ino f =
  let ppb = map.Bmap.dev.block_size / 4 in
  let visit_l1 p addr_of_l1 =
    if
      addr_of_l1 <> -1
      && iter_pointers map ino (Bkey.L1 p) (fun slot child ->
             f (Bkey.Data (Bkey.ndirect + (p * ppb) + slot)) child)
    then f (Bkey.L1 p) addr_of_l1
  in
  let visit_l2 q addr_of_l2 =
    if
      addr_of_l2 <> -1
      && iter_pointers map ino (Bkey.L2 q) (fun slot child -> visit_l1 (1 + (q * ppb) + slot) child)
    then f (Bkey.L2 q) addr_of_l2
  in
  Array.iteri
    (fun i addr -> if addr <> -1 then f (Bkey.Data i) addr)
    ino.Inode.direct;
  visit_l1 0 ino.Inode.single;
  visit_l2 0 ino.Inode.double;
  if
    ino.Inode.triple <> -1
    && iter_pointers map ino Bkey.L3 (fun slot child -> visit_l2 (1 + slot) child)
  then f Bkey.L3 ino.Inode.triple

let free_blocks fs ino =
  let bsz = bs fs in
  (* account every assigned block away, then clear all pointers *)
  iter_assigned_blocks (Fs.map fs) ino (fun _bkey addr -> Fs.account fs ~addr (-bsz));
  (* dirty, never-written blocks occupy no disk space; just drop them *)
  (Fs.bcache fs |> fun cache -> Bcache.drop_inum cache ino.Inode.inum);
  Array.fill ino.Inode.direct 0 Bkey.ndirect (-1);
  ino.Inode.single <- -1;
  ino.Inode.double <- -1;
  ino.Inode.triple <- -1;
  ino.Inode.size <- 0;
  Fs.mark_inode_dirty fs ino

let truncate fs ino newsize =
  Fs.charge_cpu fs (Fs.param fs).Param.cpu.syscall;
  if newsize < 0 then invalid_arg "File.truncate";
  if newsize >= ino.Inode.size then begin
    (* extension: just a size change, the gap is a hole *)
    if newsize > ino.Inode.size then begin
      ino.Inode.size <- newsize;
      ino.Inode.mtime <- Fs.now fs;
      Fs.mark_inode_dirty fs ino
    end
  end
  else if newsize = 0 then begin
    free_blocks fs ino;
    ino.Inode.mtime <- Fs.now fs;
    Fs.mark_inode_dirty fs ino
  end
  else begin
    let bsz = bs fs in
    let keep = (newsize + bsz - 1) / bsz in
    let old_blocks = nblocks fs ino in
    for lbn = keep to old_blocks - 1 do
      if Fs.lookup_addr fs ino (Bkey.Data lbn) <> -1 then Fs.zap_pointer fs ino (Bkey.Data lbn)
      else Fs.drop_block fs ino (Bkey.Data lbn)
    done;
    (* zero the tail of the final kept block *)
    (if newsize mod bsz <> 0 then
       match Fs.get_block fs ino (Bkey.Data (keep - 1)) with
       | Some _ ->
           let block = Fs.get_block_for_write fs ino (Bkey.Data (keep - 1)) in
           Bytes.fill block (newsize mod bsz) (bsz - (newsize mod bsz)) '\000'
       | None -> ());
    ino.Inode.size <- newsize;
    ino.Inode.mtime <- Fs.now fs;
    Fs.mark_inode_dirty fs ino
  end
