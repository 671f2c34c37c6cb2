(* The register update runs in C (crc32_stubs.c): PCLMULQDQ folding where
   the CPU has it, slicing-by-8 tables elsewhere and for short tails.
   [select] builds the tables and picks the kernel, once, before any
   update. Both externals take the raw register and a range checked here. *)
external select : unit -> string = "util_crc32_select"

let kernel = select ()

external unsafe_update :
  (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "util_crc32_update_byte" "util_crc32_update"
[@@noalloc]

external unsafe_table_update :
  (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "util_crc32_table_update_byte" "util_crc32_table_update"
[@@noalloc]

let check_range b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32: range outside buffer"

let update crc b off len =
  check_range b off len;
  unsafe_update crc b off len

let bytes ?(off = 0) ?len b =
  let len = match len with None -> Bytes.length b - off | Some l -> l in
  update 0xffffffff b off len lxor 0xffffffff

let string s = bytes (Bytes.unsafe_of_string s)

module Private = struct
  let table_bytes ?(off = 0) ?len b =
    let len = match len with None -> Bytes.length b - off | Some l -> l in
    check_range b off len;
    unsafe_table_update 0xffffffff b off len lxor 0xffffffff
end

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
