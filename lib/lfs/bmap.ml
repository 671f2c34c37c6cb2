open Util

type t = {
  cache : Bcache.t;
  mutable dev : Dev.t;
  per_block : float;
  mutable sums : int array;
}

let written_crc t addr = if addr >= 0 && addr < Array.length t.sums then t.sums.(addr) else -1

let rec get t ino key =
  match Bcache.find t.cache key with
  | data when data != Bcache.miss -> data
  | _ -> (
      Bcache.note_miss t.cache;
      match lookup t ino key with
      | -1 -> Bcache.miss
      | addr ->
          if t.per_block > 0.0 then Sim.Engine.delay t.per_block;
          let b = Bcache.take t.cache in
          t.dev.read_into ~blk:addr ~count:1 ~dst:(Bufpool.bytes b) ~dst_off:0;
          Bcache.put_clean_buf t.cache key ~addr ~crc:(written_crc t addr) b;
          Bufpool.bytes b)

and lookup t ino key =
  let ppb = t.dev.block_size / 4 in
  let p = Bcache.parent ~ppb key in
  if (p :> int) < 0 then Inode.pointer ino (Bcache.slot ~ppb key)
  else
    match get t ino p with
    | pdata when pdata != Bcache.miss -> Bytesx.get_i32 pdata (Bcache.slot ~ppb key * 4)
    | _ -> -1
