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
  dev : Dev.t;
  bitmaps : Bytes.t array;
  itable : (int, Inode.t) Hashtbl.t;
  dirty_inodes : (int, unit) Hashtbl.t;
  cache : Bcache.t;
  mutable free : int;
  last_alloc : (int, int) Hashtbl.t;
  next_lbn : (int, int) Hashtbl.t;  (* sequential-read detector *)
  mutable next_dir_group : int;
}

let params t = t.prm
let engine t = t.engine
let free_blocks t = t.free
let bcache t = t.cache
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
  let block = t.dev.Dev.read ~blk ~count:1 in
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

let alloc_inode t ~kind ~group =
  let p = t.prm in
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

(* Every block enters the cache in a buffer of the cache's pool. The
   buffer is taken after any lookup that may itself insert. *)
let put_dirty_copy t key ~old_addr data =
  let b = Bcache.take t.cache in
  Bytes.blit data 0 (Bufpool.bytes b) 0 t.prm.block_size;
  Bcache.put_dirty_buf t.cache key ~old_addr ~crc:(-1) b

(* a fresh indirect block: every pointer unassigned *)
let put_dirty_unassigned t key ~old_addr =
  let b = Bcache.take t.cache in
  let d = Bufpool.bytes b in
  Bytes.fill d 0 t.prm.block_size '\xff';
  Bcache.put_dirty_buf t.cache key ~old_addr ~crc:(-1) b;
  d

let rec get_block t ino bkey =
  let key = Bcache.key ino.Inode.inum bkey in
  match Bcache.find t.cache key with
  | data when data != Bcache.miss -> Some data
  | _ -> (
      Bcache.note_miss t.cache;
      match lookup_addr t ino bkey with
      | -1 -> None
      | addr ->
          charge_cpu t t.prm.cpu.per_block;
          let b = Bcache.take t.cache in
          t.dev.Dev.read_into ~blk:addr ~count:1 ~dst:(Bufpool.bytes b) ~dst_off:0;
          Bcache.put_clean_buf t.cache key ~addr ~crc:(-1) b;
          Some (Bufpool.bytes b))

and lookup_addr t ino bkey =
  match Bkey.parent ~ppb:(ppb t) bkey with
  | (Bkey.In_inode_direct _ | Bkey.In_inode_single | Bkey.In_inode_double | Bkey.In_inode_triple)
    as p ->
      Inode.get_inode_slot ino p
  | Bkey.In_block (pbk, slot) -> (
      match get_block t ino pbk with
      | None -> -1
      | Some pdata -> Bytesx.get_i32 pdata (slot * 4))

(* Ensure a block (data or indirect) has an address, allocating the
   indirect chain as needed. Returns the address. *)
let rec ensure_addr t ino bkey =
  match lookup_addr t ino bkey with
  | -1 ->
      let addr = alloc_block t ~inum:ino.Inode.inum in
      (match Bkey.parent ~ppb:(ppb t) bkey with
      | ( Bkey.In_inode_direct _ | Bkey.In_inode_single | Bkey.In_inode_double
        | Bkey.In_inode_triple ) as p ->
          Inode.set_inode_slot ino p addr;
          mark_inode_dirty t ino
      | Bkey.In_block (pbk, slot) ->
          ignore (ensure_addr t ino pbk);
          let pkey = Bcache.key ino.Inode.inum pbk in
          let pdata =
            match get_block t ino pbk with
            | Some d -> d
            | None -> put_dirty_unassigned t pkey ~old_addr:(-1)
          in
          Bytesx.set_i32 pdata (slot * 4) addr;
          if not (Bcache.is_dirty t.cache pkey) then Bcache.mark_dirty t.cache pkey);
      let key = Bcache.key ino.Inode.inum bkey in
      (* fresh indirect blocks must read as all-unassigned *)
      if Bkey.level bkey > 0 && Bcache.find t.cache key == Bcache.miss then
        ignore (put_dirty_unassigned t key ~old_addr:addr);
      (* remember the address for clustering of later flushes *)
      if Bcache.find t.cache key != Bcache.miss then Bcache.set_addr t.cache key addr;
      addr
  | addr -> addr

(* ---------- write path with clustering ---------- *)

let flush_threshold = 256

(* Group dirty blocks into runs of consecutive device addresses and
   write each run as one transfer of at most maxcontig blocks. *)
let flush_data t =
  let bs = t.prm.block_size in
  let entries = ref [] in
  Bcache.iter_dirty t.cache (fun key data addr ->
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
          t.dev.Dev.write ~blk:first_addr ~data:buf;
          List.iter (fun (addr, key, _) -> Bcache.mark_flushed t.cache key ~addr) run)
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
      let block = t.dev.Dev.read ~blk ~count:1 in
      List.iter
        (fun inum ->
          let _, off = inode_slot t inum in
          match Hashtbl.find_opt t.itable inum with
          | Some ino -> Inode.write_to block ~off ino
          | None -> ())
        inums;
      t.dev.Dev.write ~blk ~data:block)
    by_block;
  Hashtbl.reset t.dirty_inodes

let sync t =
  flush_data t;
  Array.iteri
    (fun g bm -> t.dev.Dev.write ~blk:(bitmap_addr t.prm g) ~data:bm)
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
    (match Bcache.find t.cache key with
    | data when data != Bcache.miss -> Bytes.blit data boff out !pos n
    | _ -> (
        Bcache.note_miss t.cache;
        match lookup_addr t ino (Bkey.Data lbn) with
        | -1 -> Bytes.fill out !pos n '\000'
        | addr ->
            (* read-ahead clusters only on detected sequential streams;
               random reads fetch single blocks *)
            let limit = if sequential then t.prm.maxcontig else 1 in
            let max_blocks = (ino.Inode.size + bs - 1) / bs in
            let rec extend count =
              if count >= limit || lbn + count >= max_blocks then count
              else if lookup_addr t ino (Bkey.Data (lbn + count)) = addr + count then
                extend (count + 1)
              else count
            in
            let count = extend 1 in
            charge_cpu t (t.prm.cpu.per_block *. float_of_int count);
            let data = t.dev.Dev.read ~blk:addr ~count in
            for i = 0 to count - 1 do
              let k = Bcache.key ino.Inode.inum (Bkey.Data (lbn + i)) in
              if Bcache.find t.cache k == Bcache.miss then begin
                let b = Bcache.take t.cache in
                Bytes.blit data (i * bs) (Bufpool.bytes b) 0 bs;
                Bcache.put_clean_buf t.cache k ~addr:(addr + i) ~crc:(-1) b
              end
            done;
            let cached = Bcache.find t.cache key in
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
    let key = Bcache.key ino.Inode.inum (Bkey.Data lbn) in
    let addr = ensure_addr t ino (Bkey.Data lbn) in
    let block =
      match Bcache.find t.cache key with
      | b when b != Bcache.miss ->
          if not (Bcache.is_dirty t.cache key) then Bcache.mark_dirty t.cache key;
          b
      | _ ->
          let b = Bcache.take t.cache in
          let block = Bufpool.bytes b in
          (* a whole-block write overwrites every byte *)
          if n = bs then ()
          else if fileoff >= ino.Inode.size then Bytes.fill block 0 bs '\000'
          else begin
            charge_cpu t t.prm.cpu.per_block;
            t.dev.Dev.read_into ~blk:addr ~count:1 ~dst:block ~dst_off:0
          end;
          Bcache.put_dirty_buf t.cache key ~old_addr:addr ~crc:(-1) b;
          block
    in
    Bytes.blit data !pos block boff n;
    pos := !pos + n
  done;
  if off + len > ino.Inode.size then ino.Inode.size <- off + len;
  ino.Inode.mtime <- now t;
  mark_inode_dirty t ino;
  if Bcache.dirty_count t.cache >= flush_threshold then flush_data t

(* ---------- namespace ---------- *)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then invalid_arg "Ffs: path must be absolute";
  List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)

let dir_lookup t dir name =
  let bs = t.prm.block_size in
  let n = (dir.Inode.size + bs - 1) / bs in
  let rec go i =
    if i >= n then None
    else
      match get_block t dir (Bkey.Data i) with
      | None -> go (i + 1)
      | Some block -> (
          match Dirent.find block name with Some inum -> Some inum | None -> go (i + 1))
  in
  go 0

let namei t path =
  let rec resolve dir = function
    | [] -> dir
    | name :: rest -> (
        match dir_lookup t dir name with
        | None -> raise Not_found
        | Some inum -> resolve (get_inode t inum) rest)
  in
  resolve (get_inode t root_inum) (split_path path)

let namei_opt t path = try Some (namei t path) with Not_found -> None

let dir_add t dir name inum =
  let bs = t.prm.block_size in
  let n = (dir.Inode.size + bs - 1) / bs in
  let rec try_block i =
    if i >= n then begin
      let fresh = Bytes.make bs '\000' in
      ignore (Dirent.add fresh name inum);
      ignore (ensure_addr t dir (Bkey.Data i));
      let old_addr = lookup_addr t dir (Bkey.Data i) in
      put_dirty_copy t (Bcache.key dir.Inode.inum (Bkey.Data i)) ~old_addr fresh;
      dir.Inode.size <- (i + 1) * bs;
      mark_inode_dirty t dir
    end
    else
      match get_block t dir (Bkey.Data i) with
      | None -> try_block (i + 1)
      | Some block ->
          if Dirent.add block name inum then begin
            let key = Bcache.key dir.Inode.inum (Bkey.Data i) in
            if not (Bcache.is_dirty t.cache key) then Bcache.mark_dirty t.cache key;
            mark_inode_dirty t dir
          end
          else try_block (i + 1)
  in
  try_block 0

let parent_of t path =
  match List.rev (split_path path) with
  | [] -> invalid_arg "Ffs: cannot operate on /"
  | base :: rev_dir ->
      let dir =
        List.fold_left
          (fun dir name ->
            match dir_lookup t dir name with
            | Some inum -> get_inode t inum
            | None -> raise Not_found)
          (get_inode t root_inum) (List.rev rev_dir)
      in
      (dir, base)

let create_node t path ~kind =
  let parent, base = parent_of t path in
  if dir_lookup t parent base <> None then failwith ("Ffs: exists: " ^ path);
  let group =
    match kind with
    | Inode.Dir ->
        t.next_dir_group <- (t.next_dir_group + 1) mod t.prm.ngroups;
        t.next_dir_group
    | _ -> group_of_inum t.prm parent.Inode.inum
  in
  let ino = alloc_inode t ~kind ~group in
  dir_add t parent base ino.Inode.inum;
  (match kind with
  | Inode.Dir ->
      ino.Inode.nlink <- 2;
      ino.Inode.size <- t.prm.block_size;
      let block = Bytes.make t.prm.block_size '\000' in
      ignore (Dirent.add block "." ino.Inode.inum);
      ignore (Dirent.add block ".." parent.Inode.inum);
      ignore (ensure_addr t ino (Bkey.Data 0));
      let old_addr = lookup_addr t ino (Bkey.Data 0) in
      put_dirty_copy t (Bcache.key ino.Inode.inum (Bkey.Data 0)) ~old_addr block;
      parent.Inode.nlink <- parent.Inode.nlink + 1;
      mark_inode_dirty t parent
  | _ -> ());
  ino

let create_file t path = create_node t path ~kind:Inode.Reg
let mkdir t path = create_node t path ~kind:Inode.Dir

let free_file_blocks t ino =
  let bs = t.prm.block_size in
  let ppbv = ppb t in
  let free_addr addr = if addr <> -1 then mark_addr t addr false in
  let free_indirect bkey addr =
    if addr <> -1 then begin
      (match get_block t ino bkey with
      | Some pdata ->
          for slot = 0 to ppbv - 1 do
            let child = Bytesx.get_i32 pdata (slot * 4) in
            if child <> -1 then free_addr child
          done
      | None -> ());
      free_addr addr
    end
  in
  ignore bs;
  Array.iter free_addr ino.Inode.direct;
  free_indirect (Bkey.L1 0) ino.Inode.single;
  (* deeper trees: walk L2/L3 conservatively *)
  if ino.Inode.double <> -1 then begin
    (match get_block t ino (Bkey.L2 0) with
    | Some pdata ->
        for slot = 0 to ppbv - 1 do
          let l1 = Bytesx.get_i32 pdata (slot * 4) in
          if l1 <> -1 then free_indirect (Bkey.L1 (1 + slot)) l1
        done
    | None -> ());
    free_addr ino.Inode.double
  end;
  Bcache.drop_inum t.cache ino.Inode.inum

let unlink t path =
  let parent, base = parent_of t path in
  match dir_lookup t parent base with
  | None -> raise Not_found
  | Some inum ->
      let ino = get_inode t inum in
      let bs = t.prm.block_size in
      let n = (parent.Inode.size + bs - 1) / bs in
      let rec remove_from i =
        if i < n then
          match get_block t parent (Bkey.Data i) with
          | Some block when Dirent.find block base <> None ->
              ignore (Dirent.remove block base);
              let key = Bcache.key parent.Inode.inum (Bkey.Data i) in
              if not (Bcache.is_dirty t.cache key) then Bcache.mark_dirty t.cache key
          | _ -> remove_from (i + 1)
      in
      remove_from 0;
      ino.Inode.nlink <- ino.Inode.nlink - 1;
      if ino.Inode.nlink <= 0 then begin
        free_file_blocks t ino;
        ino.Inode.kind <- Inode.Reg;
        ino.Inode.size <- 0;
        ino.Inode.nlink <- 0;
        (* zero the on-disk slot so the inum becomes reusable *)
        let blk, off = inode_slot t inum in
        let block = t.dev.Dev.read ~blk ~count:1 in
        Bytes.fill block off Inode.isize '\000';
        t.dev.Dev.write ~blk ~data:block;
        Hashtbl.remove t.itable inum;
        Hashtbl.remove t.dirty_inodes inum
      end
      else mark_inode_dirty t ino

let readdir t dir =
  let bs = t.prm.block_size in
  let n = (dir.Inode.size + bs - 1) / bs in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match get_block t dir (Bkey.Data i) with
    | None -> ()
    | Some block -> Dirent.iter block (fun name inum -> out := (name, inum) :: !out)
  done;
  !out

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
    dev;
    bitmaps = Array.init prm.ngroups (fun _ -> Bytes.make prm.block_size '\000');
    itable = Hashtbl.create 64;
    dirty_inodes = Hashtbl.create 16;
    cache = Bcache.create ~cap:prm.bcache_blocks ~block_size:prm.block_size;
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
  ignore (ensure_addr t root (Bkey.Data 0));
  let old_addr = lookup_addr t root (Bkey.Data 0) in
  put_dirty_copy t (Bcache.key root_inum (Bkey.Data 0)) ~old_addr block;
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
  Bcache.invalidate_clean t.cache;
  Hashtbl.reset t.itable;
  Hashtbl.reset t.next_lbn

let check t =
  let problems = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* every reachable block must be marked used *)
  let rec visit_dir dir =
    List.iter
      (fun (name, inum) ->
        if name <> "." && name <> ".." then begin
          match get_inode t inum with
          | exception Not_found -> complain "dangling entry %s -> %d" name inum
          | ino ->
              Array.iter
                (fun addr ->
                  if addr <> -1 && not (addr_used t addr) then
                    complain "ino %d block %d not marked used" inum addr)
                ino.Inode.direct;
              if ino.Inode.kind = Inode.Dir then visit_dir ino
        end)
      (readdir t dir)
  in
  (try visit_dir (get_inode t root_inum) with e -> complain "walk: %s" (Printexc.to_string e));
  List.rev !problems
