open Util

type finfo = { fi_ino : int; fi_version : int; fi_lastlength : int; fi_blocks : Bkey.t list }

type t = {
  ss_next : int;
  ss_create : float;
  ss_serial : int64;
  ss_flags : int;
  finfos : finfo list;
  inode_addrs : int list;
}

(* A magic word distinguishes real summaries from erased/garbage blocks
   during log scans. *)
let magic = 0x4c465353 (* "LFSS" *)

let header_bytes = 40
let finfo_bytes f = 12 + (4 * List.length f.fi_blocks)

let bytes_needed t =
  header_bytes
  + List.fold_left (fun acc f -> acc + finfo_bytes f) 0 t.finfos
  + (4 * List.length t.inode_addrs)

let ndata_blocks t = List.fold_left (fun acc f -> acc + List.length f.fi_blocks) 0 t.finfos
let nblocks_total t = ndata_blocks t + List.length t.inode_addrs

let serialize_into ~block_size ~data_crc t ~dst ~dst_off =
  if bytes_needed t > block_size then invalid_arg "Summary.serialize: does not fit";
  if dst_off < 0 || dst_off > Bytes.length dst - block_size then
    invalid_arg "Summary.serialize_into: block outside buffer";
  let b = dst and o = dst_off in
  Bytes.fill b o block_size '\000';
  Bytesx.set_u32 b (o + 4) data_crc;
  Bytesx.set_i32 b (o + 8) t.ss_next;
  Bytesx.set_u64 b (o + 12) (Int64.bits_of_float t.ss_create);
  Bytesx.set_u64 b (o + 20) t.ss_serial;
  Bytesx.set_u16 b (o + 28) (List.length t.finfos);
  Bytesx.set_u16 b (o + 30) (List.length t.inode_addrs);
  Bytesx.set_u16 b (o + 32) t.ss_flags;
  Bytesx.set_u32 b (o + 34) magic;
  let off = ref (o + header_bytes) in
  List.iter
    (fun f ->
      Bytesx.set_u32 b !off f.fi_ino;
      Bytesx.set_u32 b (!off + 4) f.fi_version;
      Bytesx.set_u16 b (!off + 8) f.fi_lastlength;
      Bytesx.set_u16 b (!off + 10) (List.length f.fi_blocks);
      off := !off + 12;
      List.iter
        (fun bk ->
          Bytesx.set_i32 b !off (Bkey.encode bk);
          off := !off + 4)
        f.fi_blocks)
    t.finfos;
  List.iteri
    (fun i addr -> Bytesx.set_i32 b (o + block_size - (4 * (i + 1))) addr)
    t.inode_addrs;
  (* sumsum covers the block with its own field (still zero) included *)
  Bytesx.set_u32 b o (Crc32.bytes ~off:o ~len:block_size b)

let serialize ~block_size ~data_crc t =
  let b = Bytes.create block_size in
  serialize_into ~block_size ~data_crc t ~dst:b ~dst_off:0;
  b

type error = Bad_checksum | Garbage

let deserialize b =
  let block_size = Bytes.length b in
  if block_size < header_bytes then Error Garbage
  else if Bytesx.get_u32 b 34 <> magic then Error Garbage
  else begin
    let recorded = Bytesx.get_u32 b 0 in
    Bytesx.set_u32 b 0 0;
    let actual = Crc32.bytes b in
    Bytesx.set_u32 b 0 recorded;
    if actual <> recorded then Error Bad_checksum
    else begin
      let nfinfo = Bytesx.get_u16 b 28 in
      let ninos = Bytesx.get_u16 b 30 in
      let off = ref header_bytes in
      let finfos =
        List.init nfinfo (fun _ ->
            let fi_ino = Bytesx.get_u32 b !off in
            let fi_version = Bytesx.get_u32 b (!off + 4) in
            let fi_lastlength = Bytesx.get_u16 b (!off + 8) in
            let n = Bytesx.get_u16 b (!off + 10) in
            off := !off + 12;
            let fi_blocks =
              List.init n (fun _ ->
                  let v = Bytesx.get_i32 b !off in
                  off := !off + 4;
                  Bkey.decode v)
            in
            { fi_ino; fi_version; fi_lastlength; fi_blocks })
      in
      let inode_addrs =
        List.init ninos (fun i -> Bytesx.get_i32 b (block_size - (4 * (i + 1))))
      in
      Ok
        ( {
            ss_next = Bytesx.get_i32 b 8;
            ss_create = Int64.float_of_bits (Bytesx.get_u64 b 12);
            ss_serial = Bytesx.get_u64 b 20;
            ss_flags = Bytesx.get_u16 b 32;
            finfos;
            inode_addrs;
          },
          Bytesx.get_u32 b 4 )
    end
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>summary serial=%Ld next=%d create=%.3f@," t.ss_serial t.ss_next
    t.ss_create;
  List.iter
    (fun f ->
      Format.fprintf fmt "  file ino=%d v=%d blocks=[%a]@," f.fi_ino f.fi_version
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") Bkey.pp)
        f.fi_blocks)
    t.finfos;
  Format.fprintf fmt "  inode blocks at [%a]@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt " ") Format.pp_print_int)
    t.inode_addrs
