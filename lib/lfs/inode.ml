open Util

type kind = Reg | Dir | Symlink

type t = {
  inum : int;
  mutable kind : kind;
  mutable nlink : int;
  mutable size : int;
  mutable atime : float;
  mutable mtime : float;
  mutable ctime : float;
  mutable version : int;
  direct : int array;
  mutable single : int;
  mutable double : int;
  mutable triple : int;
  mutable uid : int;
  mutable gid : int;
}

let unassigned = -1
let isize = 128

let create ~inum ~kind ~version ~now =
  {
    inum;
    kind;
    nlink = 1;
    size = 0;
    atime = now;
    mtime = now;
    ctime = now;
    version;
    direct = Array.make Bkey.ndirect unassigned;
    single = unassigned;
    double = unassigned;
    triple = unassigned;
    uid = 0;
    gid = 0;
  }

let per_block ~block_size = block_size / isize

(* Inode pointer slots by number: the direct slots, then single,
   double and triple. *)
let pointer t i =
  if i < Bkey.ndirect then t.direct.(i)
  else if i = Bkey.ndirect then t.single
  else if i = Bkey.ndirect + 1 then t.double
  else t.triple

let set_pointer t i v =
  if i < Bkey.ndirect then t.direct.(i) <- v
  else if i = Bkey.ndirect then t.single <- v
  else if i = Bkey.ndirect + 1 then t.double <- v
  else t.triple <- v

let kind_code = function Reg -> 1 | Dir -> 2 | Symlink -> 3

let kind_of_code = function
  | 1 -> Some Reg
  | 2 -> Some Dir
  | 3 -> Some Symlink
  | _ -> None

let write_to b ~off t =
  Bytesx.set_u32 b off t.inum;
  Bytesx.set_u32 b (off + 4) t.version;
  Bytesx.set_u16 b (off + 8) (kind_code t.kind);
  Bytesx.set_u16 b (off + 10) t.nlink;
  Bytesx.set_u64 b (off + 12) (Int64.of_int t.size);
  Bytesx.set_u64 b (off + 20) (Int64.bits_of_float t.atime);
  Bytesx.set_u64 b (off + 28) (Int64.bits_of_float t.mtime);
  Bytesx.set_u64 b (off + 36) (Int64.bits_of_float t.ctime);
  Array.iteri (fun i v -> Bytesx.set_i32 b (off + 44 + (4 * i)) v) t.direct;
  Bytesx.set_i32 b (off + 92) t.single;
  Bytesx.set_i32 b (off + 96) t.double;
  Bytesx.set_i32 b (off + 100) t.triple;
  Bytesx.set_u16 b (off + 104) t.uid;
  Bytesx.set_u16 b (off + 106) t.gid

let read_from b ~off =
  match kind_of_code (Bytesx.get_u16 b (off + 8)) with
  | None -> None
  | Some kind ->
      Some
        {
          inum = Bytesx.get_u32 b off;
          version = Bytesx.get_u32 b (off + 4);
          kind;
          nlink = Bytesx.get_u16 b (off + 10);
          size = Int64.to_int (Bytesx.get_u64 b (off + 12));
          atime = Int64.float_of_bits (Bytesx.get_u64 b (off + 20));
          mtime = Int64.float_of_bits (Bytesx.get_u64 b (off + 28));
          ctime = Int64.float_of_bits (Bytesx.get_u64 b (off + 36));
          direct = Array.init Bkey.ndirect (fun i -> Bytesx.get_i32 b (off + 44 + (4 * i)));
          single = Bytesx.get_i32 b (off + 92);
          double = Bytesx.get_i32 b (off + 96);
          triple = Bytesx.get_i32 b (off + 100);
          uid = Bytesx.get_u16 b (off + 104);
          gid = Bytesx.get_u16 b (off + 106);
        }

let pack_block ~block_size inodes =
  let cap = per_block ~block_size in
  if List.length inodes > cap then invalid_arg "Inode.pack_block: too many inodes";
  let b = Bytes.make block_size '\000' in
  List.iteri (fun i ino -> write_to b ~off:(i * isize) ino) inodes;
  b

let iter_block b f =
  let n = per_block ~block_size:(Bytes.length b) in
  for i = 0 to n - 1 do
    match read_from b ~off:(i * isize) with None -> () | Some ino -> f ino
  done

let find_in_block b ~inum =
  let n = per_block ~block_size:(Bytes.length b) in
  let rec go i =
    if i >= n then None
    else
      match read_from b ~off:(i * isize) with
      | Some ino when ino.inum = inum -> Some ino
      | _ -> go (i + 1)
  in
  go 0

let equal_shape a b =
  a.inum = b.inum && a.kind = b.kind && a.nlink = b.nlink && a.size = b.size
  && a.version = b.version && a.direct = b.direct && a.single = b.single && a.double = b.double
  && a.triple = b.triple && a.uid = b.uid && a.gid = b.gid
