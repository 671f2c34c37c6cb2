exception Exists of string
exception Not_dir of string
exception Not_empty of string

module type FS = sig
  type t

  val block_size : t -> int
  val now : t -> float
  val get_inode : t -> int -> Inode.t
  val map : t -> Bmap.t
  val get_block_for_write : t -> Inode.t -> Bkey.t -> Bytes.t
  val put_block : t -> Inode.t -> Bkey.t -> Bytes.t -> unit
  val alloc_inode : t -> kind:Inode.kind -> parent:Inode.t -> Inode.t
  val mark_inode_dirty : t -> Inode.t -> unit
  val free : t -> Inode.t -> unit
  val read : t -> Inode.t -> off:int -> len:int -> Bytes.t
  val write : t -> Inode.t -> off:int -> Bytes.t -> unit
end

module type S = sig
  type fs

  val lookup : fs -> Inode.t -> string -> int option
  val namei : fs -> string -> Inode.t
  val namei_opt : fs -> string -> Inode.t option
  val create_file : fs -> string -> Inode.t
  val mkdir : fs -> string -> Inode.t
  val link : fs -> existing:string -> path:string -> unit
  val symlink : fs -> target:string -> path:string -> unit
  val readlink : fs -> string -> string
  val unlink : fs -> string -> unit
  val rmdir : fs -> string -> unit
  val rename : fs -> src:string -> dst:string -> unit
  val readdir : fs -> Inode.t -> (string * int) list
  val walk : fs -> string -> (string -> Inode.t -> unit) -> unit
end

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then invalid_arg "Dir: path must be absolute";
  List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path)

let dirname_basename path =
  match List.rev (split_path path) with
  | [] -> invalid_arg "Dir: cannot operate on /"
  | base :: rev_dir -> (List.rev rev_dir, base)

module Make (F : FS) = struct
  let bs = F.block_size

  let dir_nblocks fs ino = (ino.Inode.size + bs fs - 1) / bs fs

  (* directory block [i], or [Bcache.miss] for a hole *)
  let block fs dir i = Bmap.get (F.map fs) dir (Bcache.key dir.Inode.inum (Bkey.Data i))

  (* a loop of its own, not a closure: one inside the functor would
     carry [F] in every lookup's allocation *)
  let rec find_from fs dir name i n =
    if i >= n then None
    else
      match block fs dir i with
      | b when b == Bcache.miss -> find_from fs dir name (i + 1) n
      | b -> (
          match Dirent.find b name with
          | Some inum -> Some inum
          | None -> find_from fs dir name (i + 1) n)

  let lookup fs dir name =
    if dir.Inode.kind <> Inode.Dir then raise (Not_dir (string_of_int dir.Inode.inum));
    find_from fs dir name 0 (dir_nblocks fs dir)

  let root fs = F.get_inode fs 2

  let rec resolve fs dir = function
    | [] -> dir
    | name :: rest -> (
        match lookup fs dir name with
        | None -> raise Not_found
        | Some inum -> resolve fs (F.get_inode fs inum) rest)

  let namei fs path = resolve fs (root fs) (split_path path)
  let namei_opt fs path = try Some (namei fs path) with Not_found -> None

  let parent_of fs path =
    let dir_components, base = dirname_basename path in
    let parent = resolve fs (root fs) dir_components in
    if parent.Inode.kind <> Inode.Dir then raise (Not_dir path);
    (parent, base)

  (* Insert an entry, extending the directory by one block if needed. *)
  let dir_add fs dir name inum =
    let n = dir_nblocks fs dir in
    let rec try_block i =
      if i >= n then begin
        let fresh = Bytes.make (bs fs) '\000' in
        ignore (Dirent.add fresh name inum);
        F.put_block fs dir (Bkey.Data n) fresh;
        dir.Inode.size <- (n + 1) * bs fs;
        dir.Inode.mtime <- F.now fs;
        F.mark_inode_dirty fs dir
      end
      else begin
        let block = F.get_block_for_write fs dir (Bkey.Data i) in
        if Dirent.add block name inum then begin
          dir.Inode.mtime <- F.now fs;
          F.mark_inode_dirty fs dir
        end
        else try_block (i + 1)
      end
    in
    try_block 0

  let dir_remove fs dir name =
    let n = dir_nblocks fs dir in
    let rec try_block i =
      if i >= n then false
      else
        match block fs dir i with
        | probe when probe == Bcache.miss -> try_block (i + 1)
        | probe ->
            if Dirent.find probe name <> None then begin
              let block = F.get_block_for_write fs dir (Bkey.Data i) in
              ignore (Dirent.remove block name);
              dir.Inode.mtime <- F.now fs;
              F.mark_inode_dirty fs dir;
              true
            end
            else try_block (i + 1)
    in
    try_block 0

  let create_node fs path ~kind =
    let parent, base = parent_of fs path in
    if lookup fs parent base <> None then raise (Exists path);
    let ino = F.alloc_inode fs ~kind ~parent in
    dir_add fs parent base ino.Inode.inum;
    (match kind with
    | Inode.Dir ->
        ino.Inode.nlink <- 2;
        ino.Inode.size <- bs fs;
        let block = Bytes.make (bs fs) '\000' in
        ignore (Dirent.add block "." ino.Inode.inum);
        ignore (Dirent.add block ".." parent.Inode.inum);
        F.put_block fs ino (Bkey.Data 0) block;
        parent.Inode.nlink <- parent.Inode.nlink + 1;
        F.mark_inode_dirty fs parent
    | Inode.Reg | Inode.Symlink -> ());
    F.mark_inode_dirty fs ino;
    ino

  let create_file fs path = create_node fs path ~kind:Inode.Reg
  let mkdir fs path = create_node fs path ~kind:Inode.Dir

  let link fs ~existing ~path =
    let target = namei fs existing in
    if target.Inode.kind = Inode.Dir then raise (Not_dir existing);
    let parent, base = parent_of fs path in
    if lookup fs parent base <> None then raise (Exists path);
    dir_add fs parent base target.Inode.inum;
    target.Inode.nlink <- target.Inode.nlink + 1;
    F.mark_inode_dirty fs target

  let symlink fs ~target ~path =
    let ino = create_node fs path ~kind:Inode.Symlink in
    F.write fs ino ~off:0 (Bytes.of_string target)

  let readlink fs path =
    let ino = namei fs path in
    if ino.Inode.kind <> Inode.Symlink then raise (Not_dir path);
    Bytes.to_string (F.read fs ino ~off:0 ~len:ino.Inode.size)

  let drop_last_link fs ino =
    ino.Inode.nlink <- ino.Inode.nlink - 1;
    if ino.Inode.nlink <= 0 then F.free fs ino else F.mark_inode_dirty fs ino

  let unlink fs path =
    let parent, base = parent_of fs path in
    match lookup fs parent base with
    | None -> raise Not_found
    | Some inum ->
        let ino = F.get_inode fs inum in
        if ino.Inode.kind = Inode.Dir then raise (Not_dir path);
        ignore (dir_remove fs parent base);
        drop_last_link fs ino

  let readdir fs dir =
    if dir.Inode.kind <> Inode.Dir then raise (Not_dir (string_of_int dir.Inode.inum));
    let out = ref [] in
    for i = dir_nblocks fs dir - 1 downto 0 do
      match block fs dir i with
      | b when b == Bcache.miss -> ()
      | b -> Dirent.iter b (fun name inum -> out := (name, inum) :: !out)
    done;
    !out

  let is_empty_dir fs dir =
    List.for_all (fun (name, _) -> name = "." || name = "..") (readdir fs dir)

  let rmdir fs path =
    let parent, base = parent_of fs path in
    match lookup fs parent base with
    | None -> raise Not_found
    | Some inum ->
        let ino = F.get_inode fs inum in
        if ino.Inode.kind <> Inode.Dir then raise (Not_dir path);
        if not (is_empty_dir fs ino) then raise (Not_empty path);
        ignore (dir_remove fs parent base);
        parent.Inode.nlink <- parent.Inode.nlink - 1;
        F.mark_inode_dirty fs parent;
        ino.Inode.nlink <- 0;
        F.free fs ino

  let rename fs ~src ~dst =
    let ino = namei fs src in
    let sparent, sbase = parent_of fs src in
    let dparent, dbase = parent_of fs dst in
    (match lookup fs dparent dbase with
    | Some _ -> raise (Exists dst)
    | None -> ());
    ignore (dir_remove fs sparent sbase);
    dir_add fs dparent dbase ino.Inode.inum;
    if ino.Inode.kind = Inode.Dir && sparent.Inode.inum <> dparent.Inode.inum then begin
      (* fix "..", and the parents' link counts *)
      let block = F.get_block_for_write fs ino (Bkey.Data 0) in
      ignore (Dirent.remove block "..");
      ignore (Dirent.add block ".." dparent.Inode.inum);
      sparent.Inode.nlink <- sparent.Inode.nlink - 1;
      dparent.Inode.nlink <- dparent.Inode.nlink + 1;
      F.mark_inode_dirty fs sparent;
      F.mark_inode_dirty fs dparent;
      F.mark_inode_dirty fs ino
    end

  let rec walk fs path f =
    let dir = namei fs path in
    if dir.Inode.kind <> Inode.Dir then raise (Not_dir path);
    List.iter
      (fun (name, inum) ->
        if name <> "." && name <> ".." then begin
          let child = F.get_inode fs inum in
          let child_path = if path = "/" then "/" ^ name else path ^ "/" ^ name in
          f child_path child;
          if child.Inode.kind = Inode.Dir then walk fs child_path f
        end)
      (readdir fs dir)
end

include Make (struct
  type t = Fs.t

  let block_size fs = (Fs.param fs).Param.block_size
  let now = Fs.now
  let get_inode = Fs.get_inode
  let map = Fs.map
  let get_block_for_write = Fs.get_block_for_write
  let put_block fs ino bkey data = Fs.put_block fs ino bkey data
  let alloc_inode fs ~kind ~parent:_ = Fs.alloc_inode fs ~kind
  let mark_inode_dirty = Fs.mark_inode_dirty

  (* the freed inode must reach the log so recovery learns of the
     deletion: record it dirty with nlink=0 before releasing *)
  let free fs ino =
    File.free_blocks fs ino;
    Fs.mark_inode_dirty fs ino;
    Fs.free_inode fs ino.Inode.inum

  let read = File.read
  let write = File.write
end)
