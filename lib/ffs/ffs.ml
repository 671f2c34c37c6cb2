open Util
open Lfs

exception No_space

type params = {
  block_size : int;
  ngroups : int;
  blocks_per_group : int;
  inodes_per_group : int;
  maxcontig : int;
  bcache_blocks : int;
  cpu : Param.cpu;
}

let default_params ~ngroups ~blocks_per_group =
  {
    block_size = 4096;
    ngroups;
    blocks_per_group;
    inodes_per_group = 512;
    maxcontig = 16;
    bcache_blocks = 800;
    cpu = Param.cpu_1993;
  }

type t = {
  engine : Sim.Engine.t;
  prm : params;
  map : Bmap.t;  (* the device and the cache; FFS keeps no sums *)
  bitmaps : Bytes.t array;
  itable : (int, Inode.t) Hashtbl.t;
  dirty_inodes : (int, unit) Hashtbl.t;
  mutable free : int;
  last_alloc : (int, int) Hashtbl.t;
  next_lbn : (int, int) Hashtbl.t;  (* sequential-read detector *)
  mutable next_dir_group : int;
}

let params t = t.prm
let engine t = t.engine
let free_blocks t = t.free
let bcache t = t.map.cache
let now t = Sim.Engine.now t.engine
let charge_cpu t secs = ignore t; if secs > 0.0 then Sim.Engine.delay secs

(* ---------- layout ---------- *)

let inode_table_blocks p = (p.inodes_per_group * Inode.isize + p.block_size - 1) / p.block_size
let group_base p g = 1 + (g * p.blocks_per_group)
let bitmap_addr p g = group_base p g
let itable_addr p g = group_base p g + 1
let data_start p g = group_base p g + 1 + inode_table_blocks p
let group_of_addr p addr = (addr - 1) / p.blocks_per_group
let group_of_inum p inum = inum / p.inodes_per_group
let total_blocks p = 1 + (p.ngroups * p.blocks_per_group)

let root_inum = 2

(* ---------- bitmaps ---------- *)

let bit_get b i = Char.code (Bytes.get b (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set b i v =
  let c = Char.code (Bytes.get b (i / 8)) in
  let c = if v then c lor (1 lsl (i mod 8)) else c land lnot (1 lsl (i mod 8)) in
  Bytes.set b (i / 8) (Char.chr c)

let addr_used t addr =
  let g = group_of_addr t.prm addr in
  bit_get t.bitmaps.(g) (addr - group_base t.prm g)

let mark_addr t addr v =
  let g = group_of_addr t.prm addr in
  bit_set t.bitmaps.(g) (addr - group_base t.prm g) v;
  t.free <- (if v then t.free - 1 else t.free + 1)

(* ---------- allocation ---------- *)

let scan_group t g =
  let p = t.prm in
  let base = group_base p g in
  let lo = data_start p g - base in
  let rec go i =
    if i >= p.blocks_per_group then None
    else if not (bit_get t.bitmaps.(g) i) then Some (base + i)
    else go (i + 1)
  in
  go lo

let alloc_block t ~inum =
  let p = t.prm in
  let preferred =
    match Hashtbl.find_opt t.last_alloc inum with
    | Some last
      when last + 1 < group_base p (group_of_addr p last) + p.blocks_per_group
           && not (addr_used t (last + 1)) ->
        Some (last + 1)
    | _ -> None
  in
  let addr =
    match preferred with
    | Some a -> Some a
    | None ->
        let home = group_of_inum p inum mod p.ngroups in
        let rec try_groups k =
          if k >= p.ngroups then None
          else
            match scan_group t ((home + k) mod p.ngroups) with
            | Some a -> Some a
            | None -> try_groups (k + 1)
        in
        try_groups 0
  in
  match addr with
  | None -> raise No_space
  | Some a ->
      mark_addr t a true;
      Hashtbl.replace t.last_alloc inum a;
      a

(* ---------- inodes ---------- *)

let inode_slot t inum =
  let p = t.prm in
  let g = group_of_inum p inum in
  if g >= p.ngroups then invalid_arg "Ffs: inum out of range";
  let idx = inum mod p.inodes_per_group in
  let per = p.block_size / Inode.isize in
  (itable_addr p g + (idx / per), idx mod per * Inode.isize)

let load_inode t inum =
  let blk, off = inode_slot t inum in
  let block = t.map.dev.read ~blk ~count:1 in
  Inode.read_from block ~off

let get_inode t inum =
  match Hashtbl.find_opt t.itable inum with
  | Some ino -> ino
  | None -> (
      match load_inode t inum with
      | Some ino ->
          Hashtbl.replace t.itable inum ino;
          ino
      | None -> raise Not_found)

let mark_inode_dirty t ino = Hashtbl.replace t.dirty_inodes ino.Inode.inum ()

(* Directories spread across the groups; a file goes in its parent's. *)
let alloc_inode t ~kind ~parent =
  let p = t.prm in
  let group =
    match kind with
    | Inode.Dir ->
        t.next_dir_group <- (t.next_dir_group + 1) mod p.ngroups;
        t.next_dir_group
    | Inode.Reg | Inode.Symlink -> group_of_inum p parent.Inode.inum
  in
  let rec try_groups k =
    if k >= p.ngroups then raise No_space
    else
      let g = (group + k) mod p.ngroups in
      let base = g * p.inodes_per_group in
      let rec scan i =
        if i >= p.inodes_per_group then try_groups (k + 1)
        else
          let inum = base + i in
          if inum >= 3 && not (Hashtbl.mem t.itable inum) && load_inode t inum = None then inum
          else scan (i + 1)
      in
      scan 0
  in
  let inum = try_groups 0 in
  let ino = Inode.create ~inum ~kind ~version:1 ~now:(now t) in
  Hashtbl.replace t.itable inum ino;
  mark_inode_dirty t ino;
  ino

(* ---------- block mapping (update in place) ---------- *)

let ppb t = t.prm.block_size / 4

(* a fresh indirect block: every pointer unassigned *)
let put_dirty_unassigned t key ~old_addr =
  let b = Bcache.take t.map.cache in
  let d = Bufpool.bytes b in
  Bytes.fill d 0 t.prm.block_size '\xff';
  Bcache.put_dirty_buf t.map.cache key ~old_addr ~crc:(-1) b;
  d

(* Give block [key], which has no address, one in its file's group,
   and its pointer a home, allocating the indirect chain above it as
   needed. *)
let rec assign t ino key =
  let cache = t.map.cache and ppb = ppb t in
  let addr = alloc_block t ~inum:ino.Inode.inum in
  let pk = Bcache.parent ~ppb key in
  if (pk :> int) < 0 then begin
    Inode.set_pointer ino (Bcache.slot ~ppb key) addr;
    mark_inode_dirty t ino
  end
  else begin
    ignore (ensure_addr t ino pk);
    let pdata =
      match Bmap.get t.map ino pk with
      | d when d != Bcache.miss -> d
      | _ -> put_dirty_unassigned t pk ~old_addr:(-1)
    in
    Bytesx.set_i32 pdata (Bcache.slot ~ppb key * 4) addr;
    if not (Bcache.is_dirty cache pk) then Bcache.mark_dirty cache pk
  end;
  (* fresh indirect blocks must read as all-unassigned; the address is
     remembered for clustering of later flushes *)
  if Bcache.level key > 0 && Bcache.find cache key == Bcache.miss then
    ignore (put_dirty_unassigned t key ~old_addr:addr);
  addr

and ensure_addr t ino key =
  match Bmap.lookup t.map ino key with -1 -> assign t ino key | addr -> addr

(* Block [key] of [ino], dirty in the cache for an update in place, at
   its address, which it is given if it has none. A block not in the
   cache keeps its bytes from the disk, unless the caller overwrites
   them all ([whole]), or it is new or lies past the end of the file,
   where it reads as zeros. *)
let block_for_write t ino key ~whole ~past_eof =
  let cache = t.map.cache in
  let old = Bmap.lookup t.map ino key in
  let addr = if old = -1 then assign t ino key else old in
  match Bcache.find cache key with
  | b when b != Bcache.miss ->
      if not (Bcache.is_dirty cache key) then Bcache.mark_dirty cache key;
      b
  | _ ->
      let b = Bcache.take cache in
      let block = Bufpool.bytes b in
      if whole then ()
      else if old = -1 || past_eof then Bytes.fill block 0 t.prm.block_size '\000'
      else begin
        charge_cpu t t.prm.cpu.per_block;
        t.map.dev.read_into ~blk:addr ~count:1 ~dst:block ~dst_off:0
      end;
      Bcache.put_dirty_buf cache key ~old_addr:addr ~crc:(-1) b;
      block

let put_block t ino bkey data =
  let key = Bcache.key ino.Inode.inum bkey in
  let old_addr = ensure_addr t ino key in
  (* taken after the lookup, which may itself insert *)
  let b = Bcache.take t.map.cache in
  Bytes.blit data 0 (Bufpool.bytes b) 0 t.prm.block_size;
  Bcache.put_dirty_buf t.map.cache key ~old_addr ~crc:(-1) b

(* ---------- write path with clustering ---------- *)

let flush_threshold = 256

(* Group dirty blocks into runs of consecutive device addresses and
   write each run as one transfer of at most maxcontig blocks. *)
let flush_data t =
  let bs = t.prm.block_size in
  let entries = ref [] in
  Bcache.iter_dirty t.map.cache (fun key data addr ->
      if addr <> -1 then entries := (addr, key, data) :: !entries);
  let entries = List.sort compare !entries in
  let rec runs acc current = function
    | [] -> List.rev (match current with [] -> acc | c -> List.rev c :: acc)
    | (addr, key, data) :: rest -> (
        match current with
        | (prev_addr, _, _) :: _
          when addr = prev_addr + 1 && List.length current < t.prm.maxcontig ->
            runs acc ((addr, key, data) :: current) rest
        | [] -> runs acc [ (addr, key, data) ] rest
        | c -> runs (List.rev c :: acc) [ (addr, key, data) ] rest)
  in
  List.iter
    (fun run ->
      match run with
      | [] -> ()
      | (first_addr, _, _) :: _ ->
          let buf = Bytes.create (List.length run * bs) in
          List.iteri (fun i (_, _, data) -> Bytes.blit data 0 buf (i * bs) bs) run;
          t.map.dev.write ~blk:first_addr ~data:buf;
          List.iter (fun (addr, key, _) -> Bcache.mark_flushed t.map.cache key ~addr) run)
    (runs [] [] entries);
  (* inodes: read-modify-write their table blocks *)
  let by_block = Hashtbl.create 8 in
  Hashtbl.iter
    (fun inum () ->
      let blk, _ = inode_slot t inum in
      Hashtbl.replace by_block blk
        (inum :: Option.value ~default:[] (Hashtbl.find_opt by_block blk)))
    t.dirty_inodes;
  Hashtbl.iter
    (fun blk inums ->
      let block = t.map.dev.read ~blk ~count:1 in
      List.iter
        (fun inum ->
          let _, off = inode_slot t inum in
          match Hashtbl.find_opt t.itable inum with
          | Some ino -> Inode.write_to block ~off ino
          | None -> ())
        inums;
      t.map.dev.write ~blk ~data:block)
    by_block;
  Hashtbl.reset t.dirty_inodes

let sync t =
  flush_data t;
  Array.iteri
    (fun g bm -> t.map.dev.write ~blk:(bitmap_addr t.prm g) ~data:bm)
    t.bitmaps

let unmount t = sync t

(* ---------- byte-level I/O ---------- *)

let read t ino ~off ~len =
  charge_cpu t t.prm.cpu.syscall;
  let bs = t.prm.block_size in
  let len = max 0 (min len (ino.Inode.size - off)) in
  let out = Bytes.create len in
  (* sequential-stream detection for cluster read-ahead *)
  let first_lbn = off / bs in
  let sequential =
    match Hashtbl.find_opt t.next_lbn ino.Inode.inum with
    | Some expect -> expect = first_lbn
    | None -> first_lbn = 0
  in
  let pos = ref 0 in
  while !pos < len do
    let fileoff = off + !pos in
    let lbn = fileoff / bs in
    let boff = fileoff mod bs in
    let n = min (bs - boff) (len - !pos) in
    let key = Bcache.key ino.Inode.inum (Bkey.Data lbn) in
    (match Bcache.find t.map.cache key with
    | data when data != Bcache.miss -> Bytes.blit data boff out !pos n
    | _ -> (
        Bcache.note_miss t.map.cache;
        match Bmap.lookup t.map ino key with
        | -1 -> Bytes.fill out !pos n '\000'
        | addr ->
            (* read-ahead clusters only on detected sequential streams;
               random reads fetch single blocks *)
            let limit = if sequential then t.prm.maxcontig else 1 in
            let max_blocks = (ino.Inode.size + bs - 1) / bs in
            let rec extend count =
              if count >= limit || lbn + count >= max_blocks then count
              else
                let next = Bcache.key ino.Inode.inum (Bkey.Data (lbn + count)) in
                if Bmap.lookup t.map ino next = addr + count then extend (count + 1) else count
            in
            let count = extend 1 in
            charge_cpu t (t.prm.cpu.per_block *. float_of_int count);
            let data = t.map.dev.read ~blk:addr ~count in
            for i = 0 to count - 1 do
              let k = Bcache.key ino.Inode.inum (Bkey.Data (lbn + i)) in
              if Bcache.find t.map.cache k == Bcache.miss then begin
                let b = Bcache.take t.map.cache in
                Bytes.blit data (i * bs) (Bufpool.bytes b) 0 bs;
                Bcache.put_clean_buf t.map.cache k ~addr:(addr + i) ~crc:(-1) b
              end
            done;
            let cached = Bcache.find t.map.cache key in
            Bytes.blit cached boff out !pos n));
    pos := !pos + n
  done;
  if len > 0 then begin
    ino.Inode.atime <- now t;
    Hashtbl.replace t.next_lbn ino.Inode.inum ((off + len) / bs)
  end;
  out

let write t ino ~off data =
  charge_cpu t t.prm.cpu.syscall;
  let bs = t.prm.block_size in
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let fileoff = off + !pos in
    let lbn = fileoff / bs in
    let boff = fileoff mod bs in
    let n = min (bs - boff) (len - !pos) in
    let block =
      block_for_write t ino
        (Bcache.key ino.Inode.inum (Bkey.Data lbn))
        ~whole:(n = bs) ~past_eof:(lbn * bs >= ino.Inode.size)
    in
    Bytes.blit data !pos block boff n;
    pos := !pos + n
  done;
  if off + len > ino.Inode.size then ino.Inode.size <- off + len;
  ino.Inode.mtime <- now t;
  mark_inode_dirty t ino;
  if Bcache.dirty_count t.map.cache >= flush_threshold then flush_data t

(* ---------- namespace ---------- *)

(* The last link is gone: the blocks go back to the bitmap, and the
   inode's on-disk slot is zeroed so the inum can be reused. *)
let free t ino =
  let inum = ino.Inode.inum in
  File.iter_assigned_blocks t.map ino (fun _ addr -> mark_addr t addr false);
  Bcache.drop_inum t.map.cache inum;
  ino.Inode.kind <- Inode.Reg;
  ino.Inode.size <- 0;
  ino.Inode.nlink <- 0;
  let blk, off = inode_slot t inum in
  let block = t.map.dev.read ~blk ~count:1 in
  Bytes.fill block off Inode.isize '\000';
  t.map.dev.write ~blk ~data:block;
  Hashtbl.remove t.itable inum;
  Hashtbl.remove t.dirty_inodes inum

include Dir.Make (struct
  type nonrec t = t

  let block_size t = t.prm.block_size
  let now = now
  let get_inode = get_inode
  let map t = t.map

  let get_block_for_write t ino bkey =
    block_for_write t ino (Bcache.key ino.Inode.inum bkey) ~whole:false ~past_eof:false

  let put_block = put_block
  let alloc_inode = alloc_inode
  let mark_inode_dirty = mark_inode_dirty
  let free = free
  let read = read
  let write = write
end)

(* ---------- mkfs / mount ---------- *)

let sb_magic = 0x46465342 (* "FFSB" *)

let serialize_sb p =
  let b = Bytes.make p.block_size '\000' in
  Bytesx.set_u32 b 0 sb_magic;
  Bytesx.set_u32 b 4 p.block_size;
  Bytesx.set_u32 b 8 p.ngroups;
  Bytesx.set_u32 b 12 p.blocks_per_group;
  Bytesx.set_u32 b 16 p.inodes_per_group;
  Bytesx.set_u32 b 20 p.maxcontig;
  b

let make_state engine prm dev =
  if dev.Dev.nblocks < total_blocks prm then invalid_arg "Ffs: device too small";
  {
    engine;
    prm;
    map =
      {
        Bmap.cache = Bcache.create ~cap:prm.bcache_blocks ~block_size:prm.block_size;
        dev;
        per_block = prm.cpu.per_block;
        sums = [||];
      };
    bitmaps = Array.init prm.ngroups (fun _ -> Bytes.make prm.block_size '\000');
    itable = Hashtbl.create 64;
    dirty_inodes = Hashtbl.create 16;
    free = 0;
    last_alloc = Hashtbl.create 16;
    next_lbn = Hashtbl.create 16;
    next_dir_group = 0;
  }

let mkfs engine prm dev =
  let t = make_state engine prm dev in
  (* mark metadata blocks used; count data blocks free *)
  for g = 0 to prm.ngroups - 1 do
    let meta = 1 + inode_table_blocks prm in
    for i = 0 to meta - 1 do
      bit_set t.bitmaps.(g) i true
    done;
    t.free <- t.free + (prm.blocks_per_group - meta)
  done;
  dev.Dev.write ~blk:0 ~data:(serialize_sb prm);
  (* root directory *)
  let root = Inode.create ~inum:root_inum ~kind:Inode.Dir ~version:1 ~now:(now t) in
  root.Inode.nlink <- 2;
  root.Inode.size <- prm.block_size;
  Hashtbl.replace t.itable root_inum root;
  mark_inode_dirty t root;
  let block = Bytes.make prm.block_size '\000' in
  ignore (Dirent.add block "." root_inum);
  ignore (Dirent.add block ".." root_inum);
  put_block t root (Bkey.Data 0) block;
  sync t;
  t

let mount engine ?(cpu = Param.cpu_1993) ?bcache_blocks dev =
  let sb = dev.Dev.read ~blk:0 ~count:1 in
  if Bytesx.get_u32 sb 0 <> sb_magic then failwith "Ffs.mount: bad magic";
  let prm =
    {
      block_size = Bytesx.get_u32 sb 4;
      ngroups = Bytesx.get_u32 sb 8;
      blocks_per_group = Bytesx.get_u32 sb 12;
      inodes_per_group = Bytesx.get_u32 sb 16;
      maxcontig = Bytesx.get_u32 sb 20;
      bcache_blocks = Option.value bcache_blocks ~default:800;
      cpu;
    }
  in
  let t = make_state engine prm dev in
  for g = 0 to prm.ngroups - 1 do
    let bm = dev.Dev.read ~blk:(bitmap_addr prm g) ~count:1 in
    Bytes.blit bm 0 t.bitmaps.(g) 0 prm.block_size;
    for i = 0 to prm.blocks_per_group - 1 do
      if not (bit_get bm i) then t.free <- t.free + 1
    done
  done;
  t

let drop_caches t =
  sync t;
  Bcache.invalidate_clean t.map.cache;
  Hashtbl.reset t.itable;
  Hashtbl.reset t.next_lbn

let check t =
  let problems = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* every block reachable from the root must be marked used, and
     nothing else but the groups' metadata *)
  let seen = Hashtbl.create 64 and reachable = ref 0 in
  let rec visit ino =
    let inum = ino.Inode.inum in
    if not (Hashtbl.mem seen inum) then begin
      Hashtbl.replace seen inum ();
      File.iter_assigned_blocks t.map ino (fun bkey addr ->
          incr reachable;
          if not (addr_used t addr) then
            complain "ino %d %s at %d not marked used" inum
              (Format.asprintf "%a" Bkey.pp bkey)
              addr);
      if ino.Inode.kind = Inode.Dir then
        List.iter
          (fun (name, inum) ->
            if name <> "." && name <> ".." then
              match get_inode t inum with
              | exception Not_found -> complain "dangling entry %s -> %d" name inum
              | child -> visit child)
          (readdir t ino)
    end
  in
  (try visit (get_inode t root_inum) with e -> complain "walk: %s" (Printexc.to_string e));
  let p = t.prm in
  let used = ref 0 in
  Array.iter
    (fun bm ->
      for i = 0 to p.blocks_per_group - 1 do
        if bit_get bm i then incr used
      done)
    t.bitmaps;
  let meta = p.ngroups * (1 + inode_table_blocks p) in
  if !used <> !reachable + meta then
    complain "%d blocks marked used, but %d are reachable and %d are metadata" !used
      !reachable meta;
  List.rev !problems
