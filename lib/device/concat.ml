type layout =
  | Concat of (int * Disk.t) array  (** (starting logical block, disk) *)
  | Stripe of { unit_blocks : int; members : Disk.t array }

type t = { layout : layout; total : int; bs : int }

let common_block_size = function
  | [] -> invalid_arg "Concat: no disks"
  | d :: rest ->
      let bs = Disk.block_size d in
      List.iter
        (fun d' -> if Disk.block_size d' <> bs then invalid_arg "Concat: mixed block sizes")
        rest;
      bs

let concat disks =
  let bs = common_block_size disks in
  let total = List.fold_left (fun acc d -> acc + Disk.nblocks d) 0 disks in
  let offsets =
    let acc = ref 0 in
    List.map
      (fun d ->
        let start = !acc in
        acc := !acc + Disk.nblocks d;
        (start, d))
      disks
  in
  { layout = Concat (Array.of_list offsets); total; bs }

let stripe ~stripe_blocks disks =
  if stripe_blocks <= 0 then invalid_arg "Concat.stripe: bad unit";
  let bs = common_block_size disks in
  let members = Array.of_list disks in
  let n0 = Disk.nblocks members.(0) in
  Array.iter
    (fun d -> if Disk.nblocks d <> n0 then invalid_arg "Concat.stripe: unequal disks")
    members;
  { layout = Stripe { unit_blocks = stripe_blocks; members }; total = n0 * Array.length members; bs }

let nblocks t = t.total
let block_size t = t.bs

let disks t =
  match t.layout with
  | Concat arr -> Array.to_list (Array.map snd arr)
  | Stripe { members; _ } -> Array.to_list members

let locate t blk =
  if blk < 0 || blk >= t.total then invalid_arg "Concat.locate: out of range";
  match t.layout with
  | Concat arr ->
      let rec find i =
        let start, d = arr.(i) in
        if blk >= start && blk < start + Disk.nblocks d then (d, blk - start)
        else find (i + 1)
      in
      find 0
  | Stripe { unit_blocks; members } ->
      let n = Array.length members in
      let stripe_idx = blk / unit_blocks in
      let within = blk mod unit_blocks in
      let d = members.(stripe_idx mod n) in
      (d, ((stripe_idx / n) * unit_blocks) + within)

(* Split a logical extent into physically-contiguous runs. *)
let rec extents t blk count acc =
  if count = 0 then List.rev acc
  else
    let d, phys = locate t blk in
    let run =
      match t.layout with
      | Concat _ -> min count (Disk.nblocks d - phys)
      | Stripe { unit_blocks; _ } -> min count (unit_blocks - (blk mod unit_blocks))
    in
    extents t (blk + run) (count - run) ((d, phys, blk, run) :: acc)

(* Each physically-contiguous run moves directly between the member
   disk and the caller's view — no per-run slice buffers. *)
let read_into t ~blk ~count ~dst ~dst_off =
  if dst_off < 0 || dst_off + (count * t.bs) > Bytes.length dst then
    invalid_arg "Concat.read_into: view outside buffer";
  List.iter
    (fun (d, phys, logical, run) ->
      Disk.read_into d ~blk:phys ~count:run ~dst ~dst_off:(dst_off + ((logical - blk) * t.bs)))
    (extents t blk count [])

let read t ~blk ~count =
  let out = Bytes.create (count * t.bs) in
  read_into t ~blk ~count ~dst:out ~dst_off:0;
  out

let write_from t ~blk ~src ~src_off ~count =
  if src_off < 0 || src_off + (count * t.bs) > Bytes.length src then
    invalid_arg "Concat.write_from: view outside buffer";
  List.iter
    (fun (d, phys, logical, run) ->
      Disk.write_from d ~blk:phys ~src ~src_off:(src_off + ((logical - blk) * t.bs)) ~count:run)
    (extents t blk count [])

let write t ~blk data =
  if Bytes.length data = 0 || Bytes.length data mod t.bs <> 0 then
    invalid_arg "Concat.write: bad length";
  write_from t ~blk ~src:data ~src_off:0 ~count:(Bytes.length data / t.bs)

let share_from t ~blk ~src ~src_blk ~count =
  List.iter
    (fun (d, phys, logical, run) ->
      Disk.share_from d ~blk:phys ~src ~src_blk:(src_blk + (logical - blk)) ~count:run)
    (extents t blk count [])

let share_into t ~blk ~count ~dst ~dst_blk =
  List.iter
    (fun (d, phys, logical, run) ->
      Disk.share_into d ~blk:phys ~count:run ~dst ~dst_blk:(dst_blk + (logical - blk)))
    (extents t blk count [])
