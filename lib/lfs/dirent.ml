open Util

let entry_bytes = 64
let max_name = entry_bytes - 6
let per_block ~block_size = block_size / entry_bytes

let check_name name =
  let n = String.length name in
  if n = 0 || n > max_name then invalid_arg "Dirent: bad name length";
  if String.contains name '/' || String.contains name '\000' then
    invalid_arg "Dirent: name contains / or NUL"

let slot_inum b i = Bytesx.get_u32 b (i * entry_bytes)

let slot_name b i =
  let off = i * entry_bytes in
  let len = Bytesx.get_u16 b (off + 4) in
  Bytes.sub_string b (off + 6) len

let find b name =
  let n = per_block ~block_size:(Bytes.length b) in
  let rec go i =
    if i >= n then None
    else if slot_inum b i <> 0 && slot_name b i = name then Some (slot_inum b i)
    else go (i + 1)
  in
  go 0

let add b name inum =
  check_name name;
  if inum <= 0 then invalid_arg "Dirent.add: bad inum";
  let n = per_block ~block_size:(Bytes.length b) in
  let rec go i =
    if i >= n then false
    else if slot_inum b i = 0 then begin
      let off = i * entry_bytes in
      Bytes.fill b off entry_bytes '\000';
      Bytesx.set_u32 b off inum;
      Bytesx.set_u16 b (off + 4) (String.length name);
      Bytes.blit_string name 0 b (off + 6) (String.length name);
      true
    end
    else go (i + 1)
  in
  go 0

let remove b name =
  let n = per_block ~block_size:(Bytes.length b) in
  let rec go i =
    if i >= n then false
    else if slot_inum b i <> 0 && slot_name b i = name then begin
      Bytes.fill b (i * entry_bytes) entry_bytes '\000';
      true
    end
    else go (i + 1)
  in
  go 0

let iter b f =
  let n = per_block ~block_size:(Bytes.length b) in
  for i = 0 to n - 1 do
    if slot_inum b i <> 0 then f (slot_name b i) (slot_inum b i)
  done

let count b =
  let c = ref 0 in
  iter b (fun _ _ -> incr c);
  !c
