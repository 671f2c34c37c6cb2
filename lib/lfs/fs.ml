open Util

exception No_space

(* Where a partial segment goes: the log's tail or a staging line. Block
   [i] is addressed [base + 1 + i]; the partial is written at device
   block [blk], and, when [whole], to its segment's end. *)
type target = {
  base : int;
  blk : int;
  next : int;
  flags : int;
  bump : bool;
  whole : bool;
}

(* An open partial segment, its blocks staged into arrays sized to a
   segment: a log block as its cache entry and bytes, gathered at close,
   so the writer never looks it up by key again; a migrated block
   straight into the segment buffer, with the sum it carries. *)
type partial = {
  mutable target : target;
  mutable p_n : int;  (* blocks staged *)
  mutable p_sum_bytes : int;  (* running summary-space estimate *)
  mutable p_last_ino : int;  (* for finfo run-length grouping *)
  p_keys : Bcache.key array;  (* [Bcache.none] for an inode block *)
  p_entries : Bcache.handle array;  (* [Bcache.no_handle] for an inode or fixed block *)
  p_payloads : Bytes.t array;  (* [Bytes.empty] for a block already in the buffer *)
  p_crcs : int array;  (* a fixed block's carried sum or -1; every sum after close *)
  mutable p_buf : Bufpool.buf;  (* [Bufpool.none] until a block is fixed or the partial closes *)
}

type hooks = {
  is_foreign : int -> bool;
  account_foreign : addr:int -> int -> unit;
  pre_checkpoint : t -> unit;
  reclaim : unit -> bool;
  segments_freed : unit -> unit;
}

and t = {
  engine : Sim.Engine.t;
  mutable prm : Param.t;
  mutable device : Dev.t;
  tertiary_cfg : Superblock.tertiary option;
  inode_map : Imap.t;
  seg_usage : Segusage.t;
  cache : Bcache.t;
  itable : (int, Inode.t) Hashtbl.t;
  dirty_inodes : (int, unit) Hashtbl.t;
  dead_inodes : Inode.t Queue.t;  (* freed inodes awaiting a log record *)
  mutable cur_seg : int;
  mutable cur_off : int;
  mutable next_seg : int;
  mutable serial : int64;
  mutable cp_slot : int;
  mutable tvol : int;
  mutable tseg_in_vol : int;
  mutable hooks : hooks;
  mutable cleaning : bool;
  mutable in_flush : bool;
  mutable n_segs_written : int;
  mutable n_partials : int;
  mutable cache_floor : int;
  mutable sums : int array;
      (* by disk address: the CRC-32 close_partial wrote each log block
         with since mount, -1 where unknown *)
  segbufs : Bufpool.t;
  part : partial;  (* the log's, reused *)
  seen : unit Bcache.Tbl.t;  (* segments_needed's, cleared per call *)
}

let no_hooks =
  {
    is_foreign = (fun _ -> false);
    account_foreign = (fun ~addr:_ _ -> ());
    pre_checkpoint = ignore;
    reclaim = (fun () -> false);
    segments_freed = (fun () -> ());
  }

let param t = t.prm
let engine t = t.engine
let dev t = t.device
let tertiary_config t = t.tertiary_cfg
let imap t = t.inode_map
let seguse t = t.seg_usage
let bcache t = t.cache
let segbufs t = t.segbufs
let cur_seg t = t.cur_seg
let cur_off t = t.cur_off
let next_seg t = t.next_seg
let now t = Sim.Engine.now t.engine
let tvol t = t.tvol
let tseg_in_vol t = t.tseg_in_vol

let set_tertiary_cursor t ~tvol ~tseg_in_vol =
  t.tvol <- tvol;
  t.tseg_in_vol <- tseg_in_vol

let set_hooks t h = t.hooks <- h
let set_cleaning t b = t.cleaning <- b
let nclean t = Segusage.nclean t.seg_usage
let segments_written t = t.n_segs_written
let partials_written t = t.n_partials
let iter_files t f = Imap.iter_allocated t.inode_map f

let written_crc t addr = if addr >= 0 && addr < Array.length t.sums then t.sums.(addr) else -1

let charge_cpu (_ : t) secs = if secs > 0.0 then Sim.Engine.delay secs

let charge_copy t bytes =
  let rate = t.prm.cpu.copy_rate in
  if Float.is_finite rate && bytes > 0 then Sim.Engine.delay (float_of_int bytes /. rate)

(* ---------- Space accounting ---------- *)

let account t ~addr delta =
  if addr >= 0 then
    if t.hooks.is_foreign addr then t.hooks.account_foreign ~addr delta
    else
      match Layout.seg_index t.prm addr with
      | -1 -> ()
      | seg -> Segusage.add_live t.seg_usage seg delta

(* ---------- Inode management ---------- *)

let ifile_inum = 1
let root_inum = 2
let tseg_inum = 3

let mark_inode_dirty t ino = Hashtbl.replace t.dirty_inodes ino.Inode.inum ()

(* A private single-block read: block [addr] lands in a buffer of the
   cache's pool, [f] decodes it, and the buffer goes back. The buffer is
   the reader's alone, so [f] may yield; it must not keep the bytes. *)
let with_block t addr f =
  let b = Bcache.take t.cache in
  let data = Bufpool.bytes b in
  t.device.read_into ~blk:addr ~count:1 ~dst:data ~dst_off:0;
  let r = f data in
  Bcache.give t.cache b;
  r

let get_inode t inum =
  match Hashtbl.find_opt t.itable inum with
  | Some ino -> ino
  | None ->
      let e = Imap.get t.inode_map inum in
      if e.addr = -1 then raise Not_found
      else if e.addr = 0 then
        (* allocated this session but never flushed: must be in core *)
        raise Not_found
      else begin
        charge_cpu t t.prm.cpu.per_block;
        match with_block t e.addr (Inode.find_in_block ~inum) with
        | None -> failwith (Printf.sprintf "Fs.get_inode: inode %d missing at %d" inum e.addr)
        | Some ino ->
            Hashtbl.replace t.itable inum ino;
            ino
      end

let alloc_inode t ~kind =
  let inum = Imap.alloc t.inode_map in
  let e = Imap.get t.inode_map inum in
  let ino = Inode.create ~inum ~kind ~version:e.version ~now:(now t) in
  Hashtbl.replace t.itable inum ino;
  mark_inode_dirty t ino;
  e.atime <- now t;
  ino

let free_inode t inum =
  let e = Imap.get t.inode_map inum in
  if e.addr > 0 then account t ~addr:e.addr (-Inode.isize);
  (* record a zero-nlink inode in the log so roll-forward replays the
     deletion after a crash *)
  (match Hashtbl.find_opt t.itable inum with
  | Some ino ->
      ino.Inode.nlink <- 0;
      Queue.add ino t.dead_inodes
  | None -> ());
  Imap.free t.inode_map inum;
  Hashtbl.remove t.itable inum;
  Hashtbl.remove t.dirty_inodes inum

let touch_atime t inum =
  Imap.set_atime t.inode_map inum (now t);
  (* the observatory's file-heat tracker and file-recall SLI feed on
     exactly the accesses that move atime *)
  if Obs.Decision.enabled () then Obs.Decision.touch_file ~now:(now t) inum

(* ---------- Block mapping ---------- *)

let ppb t = t.prm.block_size / 4

(* The map walks packed keys: [Bcache.parent] and [Bcache.slot] locate
   a pointer with no [Bkey.parent] built per step. A block comes back as
   its bytes, or [Bcache.miss] for a hole. *)
let rec get_block_key t ino key =
  match Bcache.find t.cache key with
  | data when data != Bcache.miss -> data
  | _ -> (
      Bcache.note_miss t.cache;
      match lookup_key t ino key with
      | -1 -> Bcache.miss
      | addr ->
          charge_cpu t t.prm.cpu.per_block;
          let b = Bcache.take t.cache in
          t.device.read_into ~blk:addr ~count:1 ~dst:(Bufpool.bytes b) ~dst_off:0;
          Bcache.put_clean_buf t.cache key ~addr ~crc:(written_crc t addr) b;
          Bufpool.bytes b)

and lookup_key t ino key =
  let ppb = ppb t in
  let p = Bcache.parent ~ppb key in
  if (p :> int) < 0 then Inode.pointer ino (Bcache.slot ~ppb key)
  else
    match get_block_key t ino p with
    | pdata when pdata != Bcache.miss -> Bytesx.get_i32 pdata (Bcache.slot ~ppb key * 4)
    | _ -> -1

let get_block t ino bkey =
  match get_block_key t ino (Bcache.key ino.Inode.inum bkey) with
  | data when data != Bcache.miss -> Some data
  | _ -> None

let lookup_addr t ino bkey = lookup_key t ino (Bcache.key ino.Inode.inum bkey)

let get_block_for_write_key t ino key =
  match Bcache.find t.cache key with
  | data when data != Bcache.miss ->
      Bcache.mark_modified t.cache key;
      data
  | _ -> (
      match lookup_key t ino key with
      | -1 ->
          (* data holes are zeros; indirect-block holes must decode as
             "unassigned" pointers, i.e. every slot -1 *)
          let fill = if Bcache.level key = 0 then '\000' else '\xff' in
          let b = Bcache.take t.cache in
          let data = Bufpool.bytes b in
          Bytes.fill data 0 (Bytes.length data) fill;
          Bcache.put_dirty_buf t.cache key ~old_addr:(-1) ~crc:(-1) b;
          data
      | addr ->
          charge_cpu t t.prm.cpu.per_block;
          let b = Bcache.take t.cache in
          t.device.read_into ~blk:addr ~count:1 ~dst:(Bufpool.bytes b) ~dst_off:0;
          Bcache.put_dirty_buf t.cache key ~old_addr:addr ~crc:(-1) b;
          Bufpool.bytes b)

let get_block_for_write t ino bkey = get_block_for_write_key t ino (Bcache.key ino.Inode.inum bkey)

let put_block t ino bkey ?(off = 0) data =
  let bs = t.prm.block_size in
  if off < 0 || off + bs > Bytes.length data then invalid_arg "Fs.put_block: view outside data";
  let key = Bcache.key ino.Inode.inum bkey in
  let old_addr =
    if Bcache.find t.cache key != Bcache.miss then Bcache.addr_of t.cache key
    else lookup_key t ino key
  in
  (* taken after the lookup, which may itself insert *)
  let b = Bcache.take t.cache in
  Bytes.blit data off (Bufpool.bytes b) 0 bs;
  Bcache.put_dirty_buf t.cache key ~old_addr ~crc:(-1) b

let drop_block t ino bkey = Bcache.drop t.cache (Bcache.key ino.Inode.inum bkey)

let set_pointer t ino key addr =
  let ppb = ppb t in
  let p = Bcache.parent ~ppb key in
  if (p :> int) < 0 then begin
    Inode.set_pointer ino (Bcache.slot ~ppb key) addr;
    mark_inode_dirty t ino
  end
  else Bytesx.set_i32 (get_block_for_write_key t ino p) (Bcache.slot ~ppb key * 4) addr

let zap_pointer t ino bkey =
  let key = Bcache.key ino.Inode.inum bkey in
  let addr = lookup_key t ino key in
  let cached_old =
    if Bcache.find t.cache key == Bcache.miss then -1
    else try Bcache.addr_of t.cache key with Not_found -> -1
  in
  let victim = if addr >= 0 then addr else cached_old in
  if victim >= 0 then account t ~addr:victim (-t.prm.block_size);
  Bcache.drop t.cache key;
  if addr >= 0 then set_pointer t ino key (-1)

let repoint t ino bkey new_addr =
  let key = Bcache.key ino.Inode.inum bkey in
  if Bcache.is_dirty t.cache key then invalid_arg "Fs.repoint: block is dirty";
  let old_addr = lookup_key t ino key in
  if old_addr >= 0 then account t ~addr:old_addr (-t.prm.block_size);
  account t ~addr:new_addr t.prm.block_size;
  set_pointer t ino key new_addr;
  if Bcache.find t.cache key != Bcache.miss then Bcache.set_addr t.cache key new_addr

(* ---------- The segment writer ---------- *)

let seg_remaining t = t.prm.seg_blocks - t.cur_off

let advance_segment t =
  (* Retire the active segment and move to the reserved successor; the
     successor's replacement is chosen before any state changes, so
     running out of segments leaves the log untouched. *)
  let su = t.seg_usage in
  let fresh = t.next_seg in
  assert ((Segusage.get su fresh).state = Segusage.Clean);
  let successor =
    match Segusage.next_clean su ~after:fresh with
    | Some s when s <> fresh -> s
    | _ -> raise No_space
  in
  if (Segusage.get su t.cur_seg).state = Segusage.Active then
    Segusage.set_state su t.cur_seg Segusage.Dirty;
  Segusage.set_lastmod su t.cur_seg (now t);
  Segusage.set_state su fresh Segusage.Active;
  t.cur_seg <- fresh;
  t.cur_off <- 0;
  t.n_segs_written <- t.n_segs_written + 1;
  t.next_seg <- successor

let new_partial prm =
  {
    target = { base = 0; blk = 0; next = -1; flags = 0; bump = false; whole = false };
    p_n = 0;
    p_sum_bytes = 0;
    p_last_ino = -1;
    p_keys = Array.make prm.Param.seg_blocks Bcache.none;
    p_entries = Array.make prm.seg_blocks Bcache.no_handle;
    p_payloads = Array.make prm.seg_blocks Bytes.empty;
    p_crcs = Array.make prm.seg_blocks 0;
    p_buf = Bufpool.none;
  }

let open_partial p target =
  p.target <- target;
  p.p_n <- 0;
  p.p_sum_bytes <- Summary.header_bytes;
  p.p_last_ino <- -1;
  (* a buffer that a raised write left stays with the GC *)
  p.p_buf <- Bufpool.none

let open_staging t ~base ~blk =
  let p = new_partial t.prm in
  open_partial p
    { base; blk; next = -1; flags = 1 (* tertiary segment marker *); bump = false; whole = true };
  p

(* A partial may hold the blocks from its summary to its segment's end. *)
let room t g = t.prm.seg_blocks - Layout.off_in_seg t.prm g.blk

let image t p =
  if p.p_buf == Bufpool.none then p.p_buf <- Bufpool.take t.segbufs;
  Bufpool.bytes p.p_buf

(* Space the block's summary record needs. *)
let summary_cost p (key : Bcache.key) =
  if (key :> int) < 0 || Bcache.inum key = p.p_last_ino then 4 else 16

(* Stage a block into the partial, returning its address, or -1 when
   the partial is full, by blocks or by the space its summary would need. *)
let stage t p key h payload =
  let cost = summary_cost p key in
  if p.p_n + 1 >= room t p.target || p.p_sum_bytes + cost > t.prm.block_size then -1
  else begin
    p.p_sum_bytes <- p.p_sum_bytes + cost;
    p.p_last_ino <- (if (key :> int) < 0 then -1 else Bcache.inum key);
    let i = p.p_n in
    p.p_keys.(i) <- key;
    p.p_entries.(i) <- h;
    p.p_payloads.(i) <- payload;
    p.p_n <- i + 1;
    p.target.base + 1 + i
  end

let stage_copy t p key fill =
  match stage t p key Bcache.no_handle Bytes.empty with
  | -1 -> -1
  | addr ->
      let i = p.p_n - 1 in
      p.p_crcs.(i) <- fill (image t p) ((i + 1) * t.prm.block_size);
      addr

let finfos_of_partial t p =
  let finfo inum blocks =
    let e = Imap.get t.inode_map inum in
    let lastlength =
      match Hashtbl.find_opt t.itable inum with
      | Some ino when ino.Inode.size mod t.prm.block_size <> 0 ->
          ino.Inode.size mod t.prm.block_size
      | _ -> t.prm.block_size
    in
    {
      Summary.fi_ino = inum;
      fi_version = e.version;
      fi_lastlength = lastlength;
      fi_blocks = blocks;
    }
  in
  (* backwards, so each run of one file's blocks, and the runs, come out
     in staging order with no reversal; inode blocks do not break a run *)
  let rec go i inum blocks acc =
    if i < 0 then match blocks with [] -> acc | _ -> finfo inum blocks :: acc
    else
      let key = p.p_keys.(i) in
      if (key :> int) < 0 then go (i - 1) inum blocks acc
      else
        let owner = Bcache.inum key in
        match blocks with
        | _ :: _ when owner <> inum ->
            go (i - 1) owner [ Bcache.bkey key ] (finfo inum blocks :: acc)
        | _ -> go (i - 1) owner (Bcache.bkey key :: blocks) acc
  in
  go (p.p_n - 1) (-1) [] []

let close_partial t p =
  let g = p.target and n = p.p_n in
  let bs = t.prm.block_size in
  (* one pooled segment buffer: summary block, then the payload from
     block 1 on. A gathered block's sum is carried from its cache entry
     when the bytes are unchanged since they were last read or flushed,
     a fixed block's is the one it was staged with, and either is hashed
     only when unknown; the partial's data sum folds the block sums. *)
  let image = image t p in
  let shift = Crc32.shift bs in
  let data_crc = ref 0 in
  for i = 0 to n - 1 do
    let dst = (i + 1) * bs in
    let payload = p.p_payloads.(i) and h = p.p_entries.(i) in
    let carried =
      if payload == Bytes.empty then p.p_crcs.(i)
      else begin
        Bytes.blit payload 0 image dst bs;
        Bcache.handle_crc h payload
      end
    in
    let crc =
      if carried >= 0 then carried
      else begin
        let c = Crc32.bytes ~off:dst ~len:bs image in
        Bcache.set_handle_crc h payload c;
        c
      end
    in
    p.p_crcs.(i) <- crc;
    data_crc := Crc32.combine shift !data_crc crc
  done;
  let inode_addrs = ref [] in
  for i = n - 1 downto 0 do
    if (p.p_keys.(i) :> int) < 0 then inode_addrs := (g.base + 1 + i) :: !inode_addrs
  done;
  if g.bump then t.serial <- Int64.add t.serial 1L;
  let summary =
    {
      Summary.ss_next = g.next;
      ss_create = now t;
      ss_serial = t.serial;
      ss_flags = g.flags;
      finfos = finfos_of_partial t p;
      inode_addrs = !inode_addrs;
    }
  in
  Summary.serialize_into ~block_size:bs ~data_crc:!data_crc summary ~dst:image ~dst_off:0;
  let count = if g.whole then room t g else n + 1 in
  Bytes.fill image ((n + 1) * bs) ((count - n - 1) * bs) '\000';
  charge_copy t (count * bs);
  t.device.write_from ~blk:g.blk ~src:image ~src_off:0 ~count;
  (* a write that raised leaves the buffer to the GC *)
  Bufpool.give t.segbufs p.p_buf;
  p.p_buf <- Bufpool.none;
  (* now that bytes are on the device, record the sums of blocks written
     where they are addressed and clean the cache entries that still
     hold them: the write yielded, so a staged entry may have new bytes
     or be gone *)
  for i = 0 to n - 1 do
    let addr = g.base + 1 + i in
    if g.blk = g.base then t.sums.(addr) <- p.p_crcs.(i);
    if (p.p_keys.(i) :> int) >= 0 then
      Bcache.mark_written t.cache p.p_entries.(i) p.p_payloads.(i) ~crc:p.p_crcs.(i) ~addr
  done;
  (* hold no entry or block past the partial *)
  Array.fill p.p_entries 0 n Bcache.no_handle;
  Array.fill p.p_payloads 0 n Bytes.empty

(* Point the inode map at the live inodes of the inode block at [addr].
   A block is accounted per live inode, matching the per-inode decrement
   when one moves out. *)
let place_inodes t addr live =
  account t ~addr (Inode.isize * List.length live);
  List.iter
    (fun inum ->
      let e = Imap.get t.inode_map inum in
      if e.addr > 0 then account t ~addr:e.addr (-Inode.isize);
      Imap.set_addr t.inode_map inum addr)
    live

(* Pack inodes into blocks staged through [stage] until it reports the
   partial full, handing each staged block's address and live inums to
   [place]. A dead inode (a zero-nlink corpse, which roll-forward uses to
   replay a deletion) is only recorded. *)
let pack_inodes t stage ~place inodes =
  let bs = t.prm.block_size in
  let ipb = Inode.per_block ~block_size:bs in
  let rec go acc = function
    | [] -> (List.rev acc, [])
    | batch -> (
        let chunk, rest = Misc.split_at ipb batch in
        match stage (Inode.pack_block ~block_size:bs (List.map fst chunk)) with
        | -1 -> (List.rev acc, batch)
        | addr ->
            let live =
              List.filter_map (fun (ino, live) -> if live then Some ino.Inode.inum else None) chunk
            in
            place addr live;
            go ((addr, live) :: acc) rest)
  in
  go [] inodes

let stage_inodes t p inodes =
  pack_inodes t (stage t p Bcache.none Bcache.no_handle) ~place:(fun _ _ -> ()) inodes

let open_log_partial t =
  if seg_remaining t < 2 then advance_segment t;
  let base = Layout.seg_base t.prm t.cur_seg + t.cur_off in
  let next = Layout.seg_base t.prm t.next_seg in
  open_partial t.part { base; blk = base; next; flags = 0; bump = true; whole = false };
  t.cur_off <- t.cur_off + 1 (* summary block *)

let close_log_partial t =
  let p = t.part in
  if p.p_n = 0 then begin
    (* nothing was staged: return the reserved summary slot *)
    t.cur_off <- t.cur_off - 1;
    assert (t.cur_off = Layout.off_in_seg t.prm p.target.base)
  end
  else begin
    close_partial t p;
    t.n_partials <- t.n_partials + 1;
    (* summary blocks are not counted live: they die with their partial
       and the cleaner never needs to move them *)
    Segusage.set_lastmod t.seg_usage t.cur_seg (now t)
  end

(* Stage one block into the log, returning its assigned address: a file
   block with its key and cache entry, an inode block with [Bcache.none]
   and [Bcache.no_handle]. *)
let stage_block t (key : Bcache.key) h payload =
  let addr =
    match stage t t.part key h payload with
    | -1 ->
        close_log_partial t;
        open_log_partial t;
        stage t t.part key h payload
    | addr -> addr
  in
  t.cur_off <- t.cur_off + 1;
  addr

let segments_needed t extra_blocks =
  let bs_per_seg = Param.data_blocks_per_seg t.prm in
  let data = Bcache.dirty_count t.cache + extra_blocks in
  (* count the indirect blocks the dirty set can touch, exactly: every
     distinct ancestor of a dirty block may be dirtied by set_pointer;
     and every file with a dirty block gets its inode rewritten too.
     One reused table holds both sets: ancestors under their keys,
     files under the complement of their inum, which no key takes. *)
  let seen = t.seen in
  Bcache.Tbl.clear seen;
  let ppb = ppb t in
  let indirect = ref 0 and owners = ref 0 in
  let note_owner inum =
    let o = lnot inum in
    if not (Bcache.Tbl.mem seen o) then begin
      Bcache.Tbl.add seen o ();
      incr owners
    end
  in
  let rec walk key =
    let pk = Bcache.parent ~ppb key in
    if (pk :> int) >= 0 && not (Bcache.Tbl.mem seen (pk :> int)) then begin
      Bcache.Tbl.add seen (pk :> int) ();
      incr indirect;
      walk pk
    end
  in
  Bcache.iter_dirty t.cache (fun key _ _ ->
      note_owner (Bcache.inum key);
      walk key);
  Hashtbl.iter (fun inum () -> note_owner inum) t.dirty_inodes;
  let ipb = Inode.per_block ~block_size:t.prm.block_size in
  let ninodes = !owners + Queue.length t.dead_inodes in
  let inode_blocks = ((ninodes + ipb - 1) / ipb) + 1 in
  let total = data + !indirect + inode_blocks in
  let summaries = (total / bs_per_seg) + 2 in
  ((total + summaries + bs_per_seg - 1) / bs_per_seg) + 1

let ensure_space t =
  let needed = segments_needed t 0 in
  let reserve = if t.cleaning then 0 else t.prm.clean_reserve in
  (* the current segment's remaining room counts as free space *)
  let free () = nclean t + if seg_remaining t > 1 then 1 else 0 in
  (* under pressure, ask the hierarchy layer to give back read-only
     cache lines before declaring the disk full *)
  while free () - reserve < needed && t.hooks.reclaim () do
    ()
  done;
  if free () - reserve < needed then raise No_space

let flush t =
  if
    Hashtbl.length t.dirty_inodes > 0
    || Bcache.dirty_count t.cache > 0
    || not (Queue.is_empty t.dead_inodes)
  then begin
    if t.in_flush then failwith "Fs.flush: reentrant flush";
    ensure_space t;
    t.in_flush <- true;
    Fun.protect ~finally:(fun () -> t.in_flush <- false) @@ fun () ->
    let bs = t.prm.block_size in
    open_log_partial t;
    (* Levels 0-3: data blocks, then L1, L2, L3 indirect blocks. Each
       level's flush assigns addresses and dirties the parents that the
       next level picks up. *)
    for level = 0 to 3 do
      Bcache.iter_dirty_sorted t.cache ~level (fun h key data old_addr ->
          let inum = Bcache.inum key in
          let ino = try get_inode t inum with Not_found ->
            failwith (Printf.sprintf "Fs.flush: dirty block of missing inode %d" inum)
          in
          let addr = stage_block t key h data in
          if old_addr >= 0 then account t ~addr:old_addr (-bs);
          account t ~addr bs;
          set_pointer t ino key addr)
    done;
    (* Inode blocks: pack dirty inodes (and zero-nlink corpses, which
       roll-forward uses to replay deletions) and point the inode map at
       the live ones. *)
    let dirty_inums =
      List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.dirty_inodes [])
    in
    let live = List.map (fun inum -> (get_inode t inum, true)) dirty_inums in
    let dead =
      let acc = ref [] in
      while not (Queue.is_empty t.dead_inodes) do
        acc := (Queue.pop t.dead_inodes, false) :: !acc
      done;
      List.rev !acc
    in
    ignore
      (pack_inodes t (stage_block t Bcache.none Bcache.no_handle) ~place:(place_inodes t)
         (live @ dead));
    Hashtbl.reset t.dirty_inodes;
    close_log_partial t
  end

let maybe_flush t =
  if Bcache.dirty_count t.cache >= Param.data_blocks_per_seg t.prm then flush t

(* ---------- Ifile serialization & checkpoint ---------- *)

let su_blocks t = Segusage.nblocks ~nsegs:t.prm.nsegs ~block_size:t.prm.block_size
let im_blocks t = Imap.nblocks ~max_inodes:t.prm.max_inodes ~block_size:t.prm.block_size

let serialize_tables t =
  let bs = t.prm.block_size in
  let ifile = get_inode t ifile_inum in
  let su = su_blocks t in
  List.iter
    (fun idx ->
      put_block t ifile (Bkey.Data idx) (Segusage.serialize_block t.seg_usage ~block_size:bs idx))
    (Segusage.dirty_blocks t.seg_usage ~block_size:bs);
  List.iter
    (fun idx ->
      put_block t ifile (Bkey.Data (su + idx))
        (Imap.serialize_block t.inode_map ~block_size:bs idx))
    (Imap.dirty_blocks t.inode_map ~block_size:bs);
  Segusage.clear_dirty t.seg_usage;
  Imap.clear_dirty t.inode_map;
  mark_inode_dirty t ifile

let write_checkpoint_region t =
  let cp =
    {
      Superblock.serial = t.serial;
      timestamp = now t;
      ifile_inode_addr = (Imap.get t.inode_map ifile_inum).addr;
      cur_seg = t.cur_seg;
      cur_off = t.cur_off;
      next_seg = t.next_seg;
      tvol = t.tvol;
      tseg_in_vol = t.tseg_in_vol;
    }
  in
  let block = Superblock.serialize_checkpoint ~block_size:t.prm.block_size cp in
  t.device.write ~blk:(Layout.checkpoint_addr t.cp_slot) ~data:block;
  t.cp_slot <- 1 - t.cp_slot

let checkpoint t =
  t.hooks.pre_checkpoint t;
  (* checkpoints may draw on the cleaner's reserve: that bound exists
     precisely so the metadata flush always fits *)
  let was_cleaning = t.cleaning in
  t.cleaning <- true;
  Fun.protect ~finally:(fun () -> t.cleaning <- was_cleaning) @@ fun () ->
  flush t;
  serialize_tables t;
  flush t;
  write_checkpoint_region t

let unmount t =
  checkpoint t;
  Hashtbl.reset t.itable

(* ---------- Segment pool for HighLight ---------- *)

let set_cache_floor t floor = t.cache_floor <- max 0 (min floor (t.prm.nsegs - 1))

let alloc_clean_segment t =
  (* cache lines may dig nearly to the bottom: a demand fetch is a
     liveness requirement and staging is how a full disk frees itself;
     the static line cap bounds the total, and the log takes lines back
     through the reclaim hook when it starves *)
  if nclean t <= 2 then None
  else
    let rec pick after tries =
      if tries > t.prm.nsegs then None
      else
        match Segusage.next_clean t.seg_usage ~after with
        | None -> None
        | Some s when s = t.next_seg || s = t.cur_seg || s < t.cache_floor ->
            if s <= after && tries > 0 then None (* wrapped below the floor *)
            else pick s (tries + 1)
        | Some s ->
            Segusage.set_state t.seg_usage s Segusage.Cached;
            (* a cache line's blocks are not the log's *)
            Array.fill t.sums (Layout.seg_base t.prm s) t.prm.seg_blocks (-1);
            Some s
    in
    pick (max (t.cache_floor - 1) t.cur_seg) 0

let release_segment t seg =
  Segusage.set_state t.seg_usage seg Segusage.Clean;
  Segusage.set_cache_tag t.seg_usage seg (-1);
  t.hooks.segments_freed ()

let note_segments_freed t = t.hooks.segments_freed ()

let write_superblock t =
  t.device.write ~blk:Layout.superblock_addr
    ~data:
      (Superblock.serialize ~block_size:t.prm.block_size
         {
           Superblock.block_size = t.prm.block_size;
           seg_blocks = t.prm.seg_blocks;
           nsegs = t.prm.nsegs;
           max_inodes = t.prm.max_inodes;
           tertiary = t.tertiary_cfg;
         })

let grow t ~added_segs ?new_dev () =
  if added_segs <= 0 then invalid_arg "Fs.grow";
  let prm' = { t.prm with Param.nsegs = t.prm.nsegs + added_segs } in
  let dev = Option.value new_dev ~default:t.device in
  if dev.Dev.block_size <> t.prm.block_size then invalid_arg "Fs.grow: block size mismatch";
  if dev.Dev.nblocks < Layout.disk_blocks prm' then invalid_arg "Fs.grow: device too small";
  (* quiesce on the old geometry, then extend *)
  checkpoint t;
  t.device <- dev;
  Segusage.grow t.seg_usage ~by:added_segs ~seg_bytes:(Param.seg_bytes t.prm);
  t.prm <- prm';
  let sums = Array.make (Layout.disk_blocks prm') (-1) in
  Array.blit t.sums 0 sums 0 (Array.length t.sums);
  t.sums <- sums;
  (* the segment-usage table grew, which shifts the inode map's position
     inside the ifile: rewrite the whole ifile from the in-core tables *)
  Segusage.mark_all_dirty t.seg_usage;
  Imap.mark_all_dirty t.inode_map;
  let ifile = get_inode t ifile_inum in
  ifile.Inode.size <- (su_blocks t + im_blocks t) * t.prm.block_size;
  mark_inode_dirty t ifile;
  write_superblock t;
  checkpoint t

(* ---------- mkfs / mount / recovery ---------- *)

let make_state engine prm device tertiary_cfg =
  Param.validate prm;
  if device.Dev.block_size <> prm.block_size then invalid_arg "Fs: device block size mismatch";
  if device.Dev.nblocks < Layout.disk_blocks prm then invalid_arg "Fs: device too small";
  {
    engine;
    prm;
    device;
    tertiary_cfg;
    inode_map = Imap.create ~max_inodes:prm.max_inodes;
    seg_usage = Segusage.create ~nsegs:prm.nsegs ~seg_bytes:(Param.seg_bytes prm);
    cache = Bcache.create ~cap:prm.bcache_blocks ~block_size:prm.block_size;
    itable = Hashtbl.create 64;
    dirty_inodes = Hashtbl.create 16;
    dead_inodes = Queue.create ();
    cur_seg = 0;
    cur_off = 0;
    next_seg = 1;
    serial = 0L;
    cp_slot = 0;
    tvol = 0;
    tseg_in_vol = 0;
    hooks = no_hooks;
    cleaning = false;
    in_flush = false;
    n_segs_written = 0;
    n_partials = 0;
    cache_floor = 0;
    sums = Array.make (Layout.disk_blocks prm) (-1);
    segbufs = Bufpool.create (Param.seg_bytes prm);
    part = new_partial prm;
    seen = Bcache.Tbl.create 64;
  }

let mkfs engine prm device ?tertiary () =
  let t = make_state engine prm device tertiary in
  Segusage.set_state t.seg_usage 0 Segusage.Active;
  (* ifile *)
  Imap.alloc_specific t.inode_map ifile_inum;
  let ifile =
    Inode.create ~inum:ifile_inum ~kind:Inode.Reg
      ~version:(Imap.get t.inode_map ifile_inum).version ~now:(now t)
  in
  ifile.Inode.size <- (su_blocks t + im_blocks t) * prm.block_size;
  Hashtbl.replace t.itable ifile_inum ifile;
  mark_inode_dirty t ifile;
  (* root directory *)
  Imap.alloc_specific t.inode_map root_inum;
  let root =
    Inode.create ~inum:root_inum ~kind:Inode.Dir
      ~version:(Imap.get t.inode_map root_inum).version ~now:(now t)
  in
  root.Inode.nlink <- 2;
  root.Inode.size <- prm.block_size;
  Hashtbl.replace t.itable root_inum root;
  mark_inode_dirty t root;
  let dirblock = Bytes.make prm.block_size '\000' in
  ignore (Dirent.add dirblock "." root_inum);
  ignore (Dirent.add dirblock ".." root_inum);
  put_block t root (Bkey.Data 0) dirblock;
  (* tsegfile when a tertiary hierarchy is configured *)
  (match tertiary with
  | None -> ()
  | Some _ ->
      Imap.alloc_specific t.inode_map tseg_inum;
      let tf =
        Inode.create ~inum:tseg_inum ~kind:Inode.Reg
          ~version:(Imap.get t.inode_map tseg_inum).version ~now:(now t)
      in
      Hashtbl.replace t.itable tseg_inum tf;
      mark_inode_dirty t tf);
  Segusage.mark_all_dirty t.seg_usage;
  Imap.mark_all_dirty t.inode_map;
  write_superblock t;
  checkpoint t;
  t

let apply_inode_block t addr block =
  Inode.iter_block block (fun ino ->
      let inum = ino.Inode.inum in
      if inum <> ifile_inum && inum <> tseg_inum && inum < Imap.max_inodes t.inode_map then begin
        if ino.Inode.nlink = 0 then begin
          let e = Imap.get t.inode_map inum in
          if e.addr <> -1 then begin
            Imap.set_addr t.inode_map inum (-1);
            (* keep version moving so stale summaries lose liveness checks *)
            e.version <- max e.version ino.Inode.version
          end
        end
        else begin
          Imap.set_addr t.inode_map inum addr;
          (Imap.get t.inode_map inum).version <- ino.Inode.version;
          Hashtbl.remove t.itable inum
        end
      end)

let roll_forward t cp =
  let bs = t.prm.block_size in
  let expected = ref (Int64.add cp.Superblock.serial 1L) in
  let seg = ref cp.cur_seg and off = ref cp.cur_off and nseg = ref cp.next_seg in
  if !off >= t.prm.seg_blocks - 1 then begin
    seg := cp.next_seg;
    off := 0
  end;
  let continue_scan = ref true in
  while !continue_scan do
    let base = Layout.seg_base t.prm !seg in
    let sum_block = t.device.read ~blk:(base + !off) ~count:1 in
    match Summary.deserialize sum_block with
    | Error _ -> continue_scan := false
    | Ok (sum, datasum) ->
        if sum.Summary.ss_serial <> !expected then continue_scan := false
        else begin
          let nb = Summary.nblocks_total sum in
          if !off + 1 + nb > t.prm.seg_blocks then continue_scan := false
          else begin
            let data = if nb = 0 then Bytes.empty else t.device.read ~blk:(base + !off + 1) ~count:nb in
            if nb > 0 && Crc32.bytes data <> datasum then continue_scan := false
            else begin
              (* intact partial: apply *)
              t.serial <- sum.Summary.ss_serial;
              if (Segusage.get t.seg_usage !seg).state = Segusage.Clean then
                Segusage.set_state t.seg_usage !seg Segusage.Dirty
              else if (Segusage.get t.seg_usage !seg).state = Segusage.Cached then
                Segusage.set_state t.seg_usage !seg Segusage.Dirty;
              Segusage.add_live t.seg_usage !seg (nb * bs);
              List.iter
                (fun inode_addr ->
                  let rel = inode_addr - (base + !off + 1) in
                  if rel >= 0 && rel < nb then
                    apply_inode_block t inode_addr (Bytes.sub data (rel * bs) bs))
                sum.Summary.inode_addrs;
              expected := Int64.add !expected 1L;
              off := !off + 1 + nb;
              (match Layout.seg_of_addr t.prm sum.Summary.ss_next with
              | Some s -> nseg := s
              | None -> ());
              if !off >= t.prm.seg_blocks - 1 then begin
                seg := !nseg;
                off := 0
              end
            end
          end
        end
  done;
  t.cur_seg <- !seg;
  t.cur_off <- !off;
  t.next_seg <- !nseg;
  (match (Segusage.get t.seg_usage !seg).state with
  | Segusage.Clean | Segusage.Dirty -> Segusage.set_state t.seg_usage !seg Segusage.Active
  | Segusage.Active -> ()
  | Segusage.Cached -> Segusage.set_state t.seg_usage !seg Segusage.Active);
  if (Segusage.get t.seg_usage t.next_seg).state <> Segusage.Clean then begin
    match Segusage.next_clean t.seg_usage ~after:t.cur_seg with
    | Some s -> t.next_seg <- s
    | None -> raise No_space
  end

let mount engine ?(cpu = Param.cpu_1993) ?bcache_blocks device =
  let sb_block = device.Dev.read ~blk:Layout.superblock_addr ~count:1 in
  let sb =
    match Superblock.deserialize sb_block with
    | Ok sb -> sb
    | Error msg -> failwith ("Fs.mount: " ^ msg)
  in
  let prm =
    {
      Param.block_size = sb.Superblock.block_size;
      seg_blocks = sb.seg_blocks;
      nsegs = sb.nsegs;
      max_inodes = sb.max_inodes;
      bcache_blocks = Option.value bcache_blocks ~default:800;
      clean_reserve = (Param.default ~nsegs:sb.nsegs).clean_reserve;
      cpu;
    }
  in
  let t = make_state engine prm device sb.Superblock.tertiary in
  let cp0 = Superblock.deserialize_checkpoint (device.Dev.read ~blk:(Layout.checkpoint_addr 0) ~count:1) in
  let cp1 = Superblock.deserialize_checkpoint (device.Dev.read ~blk:(Layout.checkpoint_addr 1) ~count:1) in
  let cp =
    match (cp0, cp1) with
    | Some a, Some b -> if a.Superblock.serial >= b.Superblock.serial then a else b
    | Some a, None -> a
    | None, Some b -> b
    | None, None -> failwith "Fs.mount: no valid checkpoint"
  in
  t.cp_slot <- (match (cp0, cp1) with
    | Some a, Some b -> if a.Superblock.serial >= b.Superblock.serial then 1 else 0
    | Some _, None -> 1
    | _ -> 0);
  t.serial <- cp.Superblock.serial;
  t.tvol <- cp.Superblock.tvol;
  t.tseg_in_vol <- cp.Superblock.tseg_in_vol;
  (* load the ifile inode, then the tables it stores *)
  let iblock = device.Dev.read ~blk:cp.Superblock.ifile_inode_addr ~count:1 in
  let ifile =
    match Inode.find_in_block iblock ~inum:ifile_inum with
    | Some ino -> ino
    | None -> failwith "Fs.mount: ifile inode not found"
  in
  Hashtbl.replace t.itable ifile_inum ifile;
  Imap.alloc_specific t.inode_map ifile_inum;
  let bs = prm.block_size in
  for idx = 0 to su_blocks t - 1 do
    match get_block t ifile (Bkey.Data idx) with
    | Some b -> Segusage.load_block t.seg_usage ~block_size:bs idx b
    | None -> failwith "Fs.mount: ifile hole in segment usage table"
  done;
  (* the imap load overwrites the placeholder alloc of the ifile inum *)
  for idx = 0 to im_blocks t - 1 do
    match get_block t ifile (Bkey.Data (su_blocks t + idx)) with
    | Some b -> Imap.load_block t.inode_map ~block_size:bs idx b
    | None -> failwith "Fs.mount: ifile hole in inode map"
  done;
  Segusage.clear_dirty t.seg_usage;
  Imap.clear_dirty t.inode_map;
  t.cur_seg <- cp.Superblock.cur_seg;
  t.cur_off <- cp.Superblock.cur_off;
  t.next_seg <- cp.Superblock.next_seg;
  roll_forward t cp;
  t

(* The crash half of the recovery harness: capture the raw platter state
   at this instant, deliberately NOT flushing dirty buffers or writing a
   checkpoint first — that is exactly what a power cut leaves behind.
   Mounting the copy exercises checkpoint selection and roll-forward
   over whatever torn log tail the crash point produced. *)
let crash_image t store =
  if Device.Blockstore.block_size store <> t.prm.block_size then
    invalid_arg "Fs.crash_image: store block size differs from the file system's";
  Device.Blockstore.copy store

let drop_caches t =
  flush t;
  Bcache.invalidate_clean t.cache;
  let doomed =
    Hashtbl.fold
      (fun inum _ acc -> if inum = ifile_inum || inum = tseg_inum then acc else inum :: acc)
      t.itable []
  in
  List.iter (Hashtbl.remove t.itable) doomed

(* ---------- Invariant audit ---------- *)

let check t =
  let problems = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let counted = ref 0 in
  Segusage.iter t.seg_usage (fun seg e ->
      if e.state = Segusage.Clean then incr counted;
      if e.live_bytes > Param.seg_bytes t.prm then
        complain "segment %d live bytes %d exceed capacity" seg e.live_bytes;
      if e.state = Segusage.Clean && e.live_bytes <> 0 then
        complain "clean segment %d has %d live bytes" seg e.live_bytes);
  if !counted <> nclean t then
    complain "clean count drifted: counted %d tracked %d" !counted (nclean t);
  if t.cur_off > t.prm.seg_blocks then complain "cur_off %d beyond segment" t.cur_off;
  if (Segusage.get t.seg_usage t.cur_seg).state <> Segusage.Active then
    complain "current segment %d not active" t.cur_seg;
  (match (Segusage.get t.seg_usage t.next_seg).state with
  | Segusage.Clean -> ()
  | st ->
      complain "reserved next segment %d is %s" t.next_seg
        (Format.asprintf "%a" Segusage.pp_state st));
  (try ignore (get_inode t root_inum)
   with _ -> complain "root inode unreadable");
  if List.exists Bufpool.is_free (Bcache.buffers t.cache) then
    complain "a buffer-cache entry holds a block buffer that is on the free list";
  List.rev !problems
