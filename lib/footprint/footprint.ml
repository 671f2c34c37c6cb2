open Device

type write_result = Written | End_of_medium

type member = { jb : Jukebox.t; first_vol : int; nvols : int }

type t = {
  members : member list;
  seg_blocks : int;
  block_size : int;
  segs_per_volume : int;
  rpc_latency : float;
  total_vols : int;
  full : bool array;
  engine : Sim.Engine.t;
  mutable fp_time : float;
  mutable wbytes : int;
  mutable rbytes : int;
}

let create ?(rpc_latency = 0.0) ~seg_blocks ~segs_per_volume jukeboxes =
  (match jukeboxes with [] -> invalid_arg "Footprint.create: no jukeboxes" | _ -> ());
  let bs = Jukebox.media (List.hd jukeboxes) in
  let block_size = bs.Jukebox.block_size in
  List.iter
    (fun jb ->
      if (Jukebox.media jb).Jukebox.block_size <> block_size then
        invalid_arg "Footprint.create: mixed block sizes")
    jukeboxes;
  let acc = ref 0 in
  let members =
    List.map
      (fun jb ->
        let first_vol = !acc in
        acc := !acc + Jukebox.nvolumes jb;
        { jb; first_vol; nvols = Jukebox.nvolumes jb })
      jukeboxes
  in
  {
    members;
    seg_blocks;
    block_size;
    segs_per_volume;
    rpc_latency;
    total_vols = !acc;
    full = Array.make !acc false;
    engine = Jukebox.engine (List.hd jukeboxes);
    fp_time = 0.0;
    wbytes = 0;
    rbytes = 0;
  }

let seg_blocks t = t.seg_blocks
let block_size t = t.block_size
let nvolumes t = t.total_vols
let ndrives t = List.fold_left (fun acc m -> acc + Jukebox.ndrives m.jb) 0 t.members
let segs_per_volume t = t.segs_per_volume
let volume_full t v = t.full.(v)

let volume_loaded t vol =
  if vol < 0 || vol >= t.total_vols then invalid_arg "Footprint: bad volume";
  let m = List.find (fun m -> vol >= m.first_vol && vol < m.first_vol + m.nvols) t.members in
  Array.mem (Some (vol - m.first_vol)) (Jukebox.loaded m.jb)

let locate t vol =
  if vol < 0 || vol >= t.total_vols then invalid_arg "Footprint: bad volume";
  let m = List.find (fun m -> vol >= m.first_vol && vol < m.first_vol + m.nvols) t.members in
  (m.jb, vol - m.first_vol)

let real_segs t jb = Jukebox.vol_capacity jb / t.seg_blocks

let timed t f =
  (* the server round-trip is queueing from the request's point of view *)
  if t.rpc_latency > 0.0 then
    Sim.Ledger.charged_delay Sim.Ledger.Queue_wait t.rpc_latency;
  let t0 = Sim.Engine.now t.engine in
  let r = f () in
  t.fp_time <- t.fp_time +. (Sim.Engine.now t.engine -. t0);
  r

let read_blocks t ~vol ~seg ~off ~count =
  let jb, v = locate t vol in
  if seg < 0 || seg >= real_segs t jb then invalid_arg "Footprint.read_blocks: bad segment";
  timed t (fun () ->
      let data = Jukebox.read jb ~vol:v ~blk:((seg * t.seg_blocks) + off) ~count in
      t.rbytes <- t.rbytes + Bytes.length data;
      data)

let read_seg_stream_into t ~vol ~seg ?chunk ?(off = 0) ~dst f =
  let jb, v = locate t vol in
  if seg < 0 || seg >= real_segs t jb then
    invalid_arg "Footprint.read_seg_stream_into: bad segment";
  if off < 0 || off >= t.seg_blocks then invalid_arg "Footprint.read_seg_stream_into: bad offset";
  (* [off] > 0 is the tail re-fetch of a partial cache line: only the
     suffix moves, but chunks still land at their segment offsets in
     the image and the callback reports segment-absolute positions, so
     watermark code upstream is oblivious to where the read started *)
  let start = off in
  timed t (fun () ->
      Jukebox.read_stream_into jb ~vol:v
        ~blk:((seg * t.seg_blocks) + start)
        ~count:(t.seg_blocks - start) ?chunk ~dst ~dst_blk:start
        (fun ~off ~blocks ->
          t.rbytes <- t.rbytes + (blocks * t.block_size);
          f ~off:(start + off) ~blocks))

(* Streaming write-out, symmetric to [read_seg_stream_into]: the
   end-of-medium check happens up front, before any motion, then the
   segment's blocks, which [src] holds (a segment image), stream to the
   volume in chunks with per-chunk fault checks. [await] is the written-prefix watermark hook:
   it runs before each chunk and may block until the staging read has
   delivered that piece. [off] > 0 resumes a torn write after the
   prefix already on the media; positions stay segment-absolute. *)
let write_seg_stream_from t ~vol ~seg ?chunk ?(off = 0) ~src ~src_blk ?await f =
  let jb, v = locate t vol in
  if seg < 0 || seg >= t.segs_per_volume then
    invalid_arg "Footprint.write_seg_stream_from: bad segment";
  if off < 0 || off >= t.seg_blocks then
    invalid_arg "Footprint.write_seg_stream_from: bad offset";
  if t.full.(vol) || seg >= real_segs t jb then begin
    t.full.(vol) <- true;
    End_of_medium
  end
  else
    let start = off in
    let shift g = Option.map (fun g ~off ~blocks -> g ~off:(start + off) ~blocks) g in
    timed t (fun () ->
        Jukebox.write_stream_from jb ~vol:v
          ~blk:((seg * t.seg_blocks) + start)
          ~src ~src_blk:(src_blk + start)
          ~count:(t.seg_blocks - start) ?chunk ?await:(shift await)
          (fun ~off ~blocks ->
            t.wbytes <- t.wbytes + (blocks * t.block_size);
            f ~off:(start + off) ~blocks);
        Written)

let erase_volume t vol =
  let jb, v = locate t vol in
  Jukebox.erase_volume jb v;
  t.full.(vol) <- false

let describe t =
  List.map
    (fun m ->
      let media = Jukebox.media m.jb in
      Printf.sprintf "%s: %d drives, %d volumes of %s (%d MB each)" (Jukebox.name m.jb)
        (Jukebox.ndrives m.jb) m.nvols media.Jukebox.media_name
        (Jukebox.vol_capacity m.jb * media.Jukebox.block_size / 1048576))
    t.members

let time_in_footprint t = t.fp_time
let bytes_written t = t.wbytes
let bytes_read t = t.rbytes
let swaps t = List.fold_left (fun acc m -> acc + Jukebox.swaps m.jb) 0 t.members

let reset_stats t =
  t.fp_time <- 0.0;
  t.wbytes <- 0;
  t.rbytes <- 0
