type fsops = {
  fs_name : string;
  create : string -> unit;
  write : string -> off:int -> Bytes.t -> unit;
  read : string -> off:int -> len:int -> Bytes.t;
  flush_caches : unit -> unit;
  sync : unit -> unit;
}

let lfs_ops fs =
  let open Lfs in
  {
    fs_name = "LFS";
    create = (fun path -> ignore (Dir.create_file fs path));
    write = (fun path ~off data -> File.write fs (Dir.namei fs path) ~off data);
    read = (fun path ~off ~len -> File.read fs (Dir.namei fs path) ~off ~len);
    flush_caches = (fun () -> Bcache.invalidate_clean (Fs.bcache fs));
    sync = (fun () -> Fs.flush fs);
  }

let ffs_ops fs =
  {
    fs_name = "FFS";
    create = (fun path -> ignore (Ffs.create_file fs path));
    write = (fun path ~off data -> Ffs.write fs (Ffs.namei fs path) ~off data);
    read = (fun path ~off ~len -> Ffs.read fs (Ffs.namei fs path) ~off ~len);
    flush_caches = (fun () -> Lfs.Bcache.invalidate_clean (Ffs.bcache fs));
    sync = (fun () -> Ffs.sync fs);
  }

let hl_ops hl =
  let fs = Highlight.Hl.fs hl in
  let ops = lfs_ops fs in
  { ops with fs_name = "HighLight" }

type phase = { phase_name : string; elapsed : float; bytes_moved : int }

let throughput p = if p.elapsed <= 0.0 then infinity else float_of_int p.bytes_moved /. p.elapsed

(* Deterministic frame content lets [verify] detect corruption: byte
   [i] of a frame is [(c + 11 i) mod 256], where [c = frame + 131 g]
   and the generation [g] distinguishes replaced frames. 163 is 11's
   inverse mod 256, so a frame is the sequence [11 k mod 256] from
   [k = 163 c mod 256] on: a slice of one tiled pattern. *)
let tile = ref Bytes.empty

let pattern len =
  if Bytes.length !tile < len + 255 then
    tile := Bytes.init (len + 255) (fun k -> Char.unsafe_chr ((k * 11) land 0xff));
  !tile

let frame_start ~frame ~generation = ((frame + (generation * 131)) * 163) land 0xff

let frame_content ~frame_bytes ~frame ~generation =
  Bytes.sub (pattern frame_bytes) (frame_start ~frame ~generation) frame_bytes

(* [got] against the pattern in place, eight bytes a compare *)
let frame_matches got ~frame_bytes ~frame ~generation =
  let p = pattern frame_bytes and s = frame_start ~frame ~generation in
  let rec go i =
    if i + 8 <= frame_bytes then
      Int64.equal (Bytes.get_int64_ne got i) (Bytes.get_int64_ne p (s + i)) && go (i + 8)
    else i = frame_bytes || (Char.equal (Bytes.get got i) (Bytes.get p (s + i)) && go (i + 1))
  in
  Bytes.length got = frame_bytes && go 0

(* path -> each frame's generation *)
let generations : (string, int array) Hashtbl.t = Hashtbl.create 8

let gens_of path frames =
  match Hashtbl.find_opt generations path with
  | Some g when Array.length g >= frames -> g
  | _ ->
      let g = Array.make frames 0 in
      Hashtbl.replace generations path g;
      g

let setup engine ops ?(frames = 12500) ?(frame_bytes = 4096) path =
  ignore engine;
  ops.create path;
  (* populate in 64-frame batches to bound memory churn *)
  let batch = 64 in
  let i = ref 0 in
  while !i < frames do
    let n = min batch (frames - !i) in
    let buf = Bytes.create (n * frame_bytes) in
    let p = pattern frame_bytes in
    for j = 0 to n - 1 do
      Bytes.blit p (frame_start ~frame:(!i + j) ~generation:0) buf (j * frame_bytes) frame_bytes
    done;
    ops.write path ~off:(!i * frame_bytes) buf;
    i := !i + n
  done;
  Hashtbl.replace generations path (Array.make frames 0);
  ops.sync ()

let run engine ops ?(frames = 12500) ?(frame_bytes = 4096) ?(seed = 42) path =
  let rng = Util.Rng.create seed in
  let now () = Sim.Engine.now engine in
  let gens = gens_of path frames in
  let read_frame frame = ignore (ops.read path ~off:(frame * frame_bytes) ~len:frame_bytes) in
  let write_frame frame =
    gens.(frame) <- gens.(frame) + 1;
    ops.write path ~off:(frame * frame_bytes)
      (frame_content ~frame_bytes ~frame ~generation:gens.(frame))
  in
  let phase name f =
    ops.sync ();
    ops.flush_caches ();
    let t0 = now () in
    let bytes = f () in
    ops.sync ();
    { phase_name = name; elapsed = now () -. t0; bytes_moved = bytes }
  in
  let seq_count = frames / 5 in
  let rand_count = frames / 50 in
  let local_count = frames / 50 in
  [
    phase "sequential read" (fun () ->
        for i = 0 to seq_count - 1 do
          read_frame i
        done;
        seq_count * frame_bytes);
    phase "sequential write" (fun () ->
        for i = 0 to seq_count - 1 do
          write_frame i
        done;
        seq_count * frame_bytes);
    phase "random read" (fun () ->
        for _ = 1 to rand_count do
          read_frame (Util.Rng.int rng frames)
        done;
        rand_count * frame_bytes);
    phase "random write" (fun () ->
        for _ = 1 to rand_count do
          write_frame (Util.Rng.int rng frames)
        done;
        rand_count * frame_bytes);
    phase "read 80/20" (fun () ->
        let cursor = ref (Util.Rng.int rng frames) in
        for _ = 1 to local_count do
          if Util.Rng.int rng 100 < 80 then cursor := (!cursor + 1) mod frames
          else cursor := Util.Rng.int rng frames;
          read_frame !cursor
        done;
        local_count * frame_bytes);
    phase "write 80/20" (fun () ->
        let cursor = ref (Util.Rng.int rng frames) in
        for _ = 1 to local_count do
          if Util.Rng.int rng 100 < 80 then cursor := (!cursor + 1) mod frames
          else cursor := Util.Rng.int rng frames;
          write_frame !cursor
        done;
        local_count * frame_bytes);
  ]

let verify ops ?(frames = 12500) ?(frame_bytes = 4096) path =
  let gens = gens_of path frames in
  let ok = ref true in
  for frame = 0 to frames - 1 do
    let got = ops.read path ~off:(frame * frame_bytes) ~len:frame_bytes in
    if not (frame_matches got ~frame_bytes ~frame ~generation:gens.(frame)) then ok := false
  done;
  !ok
