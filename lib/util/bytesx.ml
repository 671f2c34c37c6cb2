let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_i32 b off = Int32.to_int (Bytes.get_int32_le b off)
let set_i32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u64 b off = Bytes.get_int64_le b off
let set_u64 b off v = Bytes.set_int64_le b off v

let get_string b ~pos ~len =
  let s = Bytes.sub_string b pos len in
  match String.index_opt s '\000' with
  | None -> s
  | Some i -> String.sub s 0 i

let set_string b ~pos ~len s =
  if String.length s > len then invalid_arg "Bytesx.set_string: too long";
  Bytes.fill b pos len '\000';
  Bytes.blit_string s 0 b pos (String.length s)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let is_zero_sub b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Bytesx.is_zero_sub";
  let stop = off + len in
  let i = ref off in
  while !i + 8 <= stop && get64u b !i = 0L do
    i := !i + 8
  done;
  while !i < stop && Bytes.unsafe_get b !i = '\000' do
    incr i
  done;
  !i >= stop

let is_zero b = is_zero_sub b 0 (Bytes.length b)
