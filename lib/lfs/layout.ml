let superblock_addr = 0

let checkpoint_addr slot =
  if slot <> 0 && slot <> 1 then invalid_arg "Layout.checkpoint_addr";
  1 + slot

let seg_base (p : Param.t) s = (s + 1) * p.seg_blocks

let seg_index (p : Param.t) addr =
  if addr < p.seg_blocks then -1
  else
    let s = (addr / p.seg_blocks) - 1 in
    if s >= p.nsegs then -1 else s

let seg_of_addr p addr = match seg_index p addr with -1 -> None | s -> Some s

let off_in_seg (p : Param.t) addr = addr mod p.seg_blocks
let disk_blocks (p : Param.t) = (p.nsegs + 1) * p.seg_blocks
