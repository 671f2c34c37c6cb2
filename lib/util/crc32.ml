(* Slicing-by-8: [tables] holds eight 256-entry tables back to back.
   Table 0 is the classic bytewise table; table k gives a byte's
   contribution when k more bytes follow it in the current 8-byte step,
   so one step folds eight bytes with eight lookups. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* The one range check guards every unsafe read below. The byte reads
   are spelled out rather than factored into a local helper: a closure
   here would allocate on every step. *)
let update crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32: range outside buffer";
  let t = tables in
  let crc = ref crc in
  let stop8 = off + (len land lnot 7) in
  let i = ref off in
  while !i < stop8 do
    let p = !i in
    let c =
      !crc
      lxor (Char.code (Bytes.unsafe_get b p)
           lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 8)
           lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 16)
           lor (Char.code (Bytes.unsafe_get b (p + 3)) lsl 24))
    in
    crc :=
      Array.unsafe_get t (0x700 + (c land 0xff))
      lxor Array.unsafe_get t (0x600 + ((c lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 + ((c lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 + (c lsr 24))
      lxor Array.unsafe_get t (0x300 + Char.code (Bytes.unsafe_get b (p + 4)))
      lxor Array.unsafe_get t (0x200 + Char.code (Bytes.unsafe_get b (p + 5)))
      lxor Array.unsafe_get t (0x100 + Char.code (Bytes.unsafe_get b (p + 6)))
      lxor Array.unsafe_get t (Char.code (Bytes.unsafe_get b (p + 7)));
    i := p + 8
  done;
  for p = stop8 to off + len - 1 do
    crc :=
      Array.unsafe_get t ((!crc lxor Char.code (Bytes.unsafe_get b p)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc

let bytes ?(off = 0) ?len b =
  let len = match len with None -> Bytes.length b - off | Some l -> l in
  update 0xffffffff b off len lxor 0xffffffff

let string s = bytes (Bytes.unsafe_of_string s)

(* With the register's pre- and post-inversion, CRC(A‖B) = CRC(A)·x^8n
   xor CRC(B) over GF(2) modulo the polynomial, where n = |B|. Running
   the raw register over n zero bytes multiplies by x^8n, so that map's
   value on each of the 32 basis bits gives its columns; byte k of the
   sum being shifted then indexes the table of columns 8k..8k+7. *)
type shift = int array

let shifts : (int, shift) Hashtbl.t = Hashtbl.create 4

let shift n =
  if n < 0 then invalid_arg "Crc32.shift: negative length";
  match Hashtbl.find_opt shifts n with
  | Some s -> s
  | None ->
      let zeros = Bytes.make n '\000' in
      let column = Array.init 32 (fun bit -> update (1 lsl bit) zeros 0 n) in
      let s = Array.make (4 * 256) 0 in
      for k = 0 to 3 do
        for v = 0 to 255 do
          for j = 0 to 7 do
            if v land (1 lsl j) <> 0 then
              s.((k * 256) + v) <- s.((k * 256) + v) lxor column.((8 * k) + j)
          done
        done
      done;
      Hashtbl.replace shifts n s;
      s

let combine s crc_a crc_b =
  Array.unsafe_get s (crc_a land 0xff)
  lxor Array.unsafe_get s (0x100 + ((crc_a lsr 8) land 0xff))
  lxor Array.unsafe_get s (0x200 + ((crc_a lsr 16) land 0xff))
  lxor Array.unsafe_get s (0x300 + ((crc_a lsr 24) land 0xff))
  lxor crc_b
