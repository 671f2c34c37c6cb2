(* Bechamel micro-benchmarks of the hot CPU paths: summary checksums and
   serialization, inode packing, cleaner victim ranking, Zipf sampling;
   then the two segment moves of the tertiary path, timed in a loop, and
   the pages a staged line's write-out takes.
   These measure real wall-clock cost of the implementation, separate
   from the simulated-time experiments. *)

open Bechamel
open Toolkit

let summary_sample () =
  {
    Lfs.Summary.ss_next = 512;
    ss_create = 1.0;
    ss_serial = 7L;
    ss_flags = 0;
    finfos =
      List.init 16 (fun i ->
          {
            Lfs.Summary.fi_ino = i + 4;
            fi_version = 1;
            fi_lastlength = 4096;
            fi_blocks = List.init 12 (fun j -> Lfs.Bkey.Data j);
          });
    inode_addrs = [ 700; 701 ];
  }

(* a block summary's worth, one 4 KB block, one 1 MB segment; each
   case reports its throughput too *)
let crc32_cases =
  List.map
    (fun (label, n) ->
      let buf = Bytes.init n (fun i -> Char.chr (i land 0xff)) in
      ( Test.make ~name:("crc32 of " ^ label) (Staged.stage (fun () -> Util.Crc32.bytes buf)),
        Some n ))
    [ ("64 B", 64); ("a 4KB block", 4096); ("a 1MB segment", 1 lsl 20) ]

let test_summary_serialize =
  let sum = summary_sample () in
  Test.make ~name:"summary serialize (16 finfos)"
    (Staged.stage (fun () -> Lfs.Summary.serialize ~block_size:4096 ~data_crc:0 sum))

let test_summary_deserialize =
  let block = Lfs.Summary.serialize ~block_size:4096 ~data_crc:0 (summary_sample ()) in
  Test.make ~name:"summary deserialize"
    (Staged.stage (fun () -> Lfs.Summary.deserialize (Bytes.copy block)))

let test_inode_pack =
  let inodes =
    List.init 32 (fun i -> Lfs.Inode.create ~inum:(i + 4) ~kind:Lfs.Inode.Reg ~version:1 ~now:0.0)
  in
  Test.make ~name:"inode block pack (32 inodes)"
    (Staged.stage (fun () -> Lfs.Inode.pack_block ~block_size:4096 inodes))

let test_zipf =
  let rng = Util.Rng.create 1 in
  let z = Util.Rng.zipf ~s:1.1 ~n:10000 in
  Test.make ~name:"zipf draw (n=10000)" (Staged.stage (fun () -> Util.Rng.zipf_draw rng z))

let test_stp_score =
  Test.make ~name:"STP score"
    (Staged.stage (fun () ->
         Policy.Stp.score Policy.Stp.default ~now:1000.0 ~atime:10.0 ~size:1048576))

let benchmarks =
  crc32_cases
  @ List.map
      (fun t -> (t, None))
      [ test_summary_serialize; test_summary_deserialize; test_inode_pack; test_zipf; test_stp_score ]

(* The I/O server's two whole-segment moves, through the calls the
   service makes, on a 1 MB segment: a fetch streams a volume segment
   into an image and lands it on the cache disk; a write-out lifts a
   staged segment off the disk into an image and streams it onto a
   volume. Every segment sits on page boundaries, so both must move
   page references only: the line reports host time and words
   allocated per segment, and the blocks any store took by copying
   (CI requires 0). *)
let seg_blocks = 256
let rounds = 200

let segment_move name ~prepare ~move =
  let engine = Sim.Engine.create () in
  let disk = Device.Disk.create engine ~nblocks:(10 * seg_blocks) Device.Disk.rz57 ~name:"disk" in
  let jb =
    Device.Jukebox.create engine ~drives:1 ~nvolumes:1 ~vol_capacity:(8 * seg_blocks)
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp = Footprint.create ~seg_blocks ~segs_per_volume:8 [ jb ] in
  let dev = Lfs.Dev.of_disk disk in
  let image = Device.Blockstore.image ~block_size:4096 ~nblocks:seg_blocks in
  let stores = [ Device.Disk.store disk; Device.Jukebox.volume_store jb 0; image ] in
  let copied () =
    List.fold_left (fun acc s -> acc + Device.Blockstore.blocks_copied s) 0 stores
  in
  let result = ref (0.0, 0.0, 0) in
  Sim.Engine.spawn engine (fun () ->
      prepare jb dev;
      move fp dev image 0;
      let words () =
        Gc.minor ();
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let c0 = copied () and w0 = words () and t0 = Unix.gettimeofday () in
      for i = 1 to rounds do
        move fp dev image i
      done;
      let dt = Unix.gettimeofday () -. t0 in
      result := (dt, words () -. w0, copied () - c0));
  Sim.Engine.run engine;
  let dt, words, blocks = !result in
  let n = float rounds in
  Printf.printf "  %-32s %10.1f us/seg %8.0f words/seg %6d blocks copied\n" name (dt *. 1e6 /. n)
    (words /. n) blocks

let segment_bytes = Bytes.init (seg_blocks * 4096) (fun i -> Char.chr ((i * 7) land 0xff))
let disk_seg i = (1 + (i mod 8)) * seg_blocks
let ignore_chunk ~off:_ ~blocks:_ = ()

let segment_moves () =
  segment_move "segment fetch+land"
    ~prepare:(fun jb _ -> Device.Jukebox.write jb ~vol:0 ~blk:0 segment_bytes)
    ~move:(fun fp dev image i ->
      Footprint.read_seg_stream_into fp ~vol:0 ~seg:0 ~dst:image ignore_chunk;
      dev.Lfs.Dev.share_from ~blk:(disk_seg i) ~src:image ~src_blk:0 ~count:seg_blocks;
      Device.Blockstore.erase image);
  segment_move "segment write-out"
    ~prepare:(fun _ dev -> dev.Lfs.Dev.write ~blk:(disk_seg 0) ~data:segment_bytes)
    ~move:(fun fp dev image i ->
      dev.Lfs.Dev.share_into ~blk:(disk_seg 0) ~count:seg_blocks ~dst:image ~dst_blk:0;
      (match
         Footprint.write_seg_stream_from fp ~vol:0 ~seg:(i mod 8) ~src:image ~src_blk:0
           ignore_chunk
       with
      | Footprint.Written -> ()
      | Footprint.End_of_medium -> failwith "micro: end of medium");
      Device.Blockstore.erase image)

(* A staging line is written out whole, its tail zeros included: the
   image is built with [k] data blocks and a zero tail, written to the
   cache disk as [Fs.close_partial] writes it, then written out as
   above. Each whole page of the tail holds the shared zero page, so the
   line costs a page per 32 data blocks, on the disk only: the volume
   shares the disk's pages. The line prints the private pages each
   store took (CI requires 1 on the disk for a 1-block line). *)
let staged_line k =
  let engine = Sim.Engine.create () in
  let disk = Device.Disk.create engine ~nblocks:(2 * seg_blocks) Device.Disk.rz57 ~name:"disk" in
  let jb =
    Device.Jukebox.create engine ~drives:1 ~nvolumes:1 ~vol_capacity:seg_blocks
      ~media:Device.Jukebox.hp6300_platter ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp = Footprint.create ~seg_blocks ~segs_per_volume:1 [ jb ] in
  let dev = Lfs.Dev.of_disk disk in
  let image = Device.Blockstore.image ~block_size:4096 ~nblocks:seg_blocks in
  let line = Bytes.make (seg_blocks * 4096) '\000' in
  Bytes.blit segment_bytes 0 line 0 (k * 4096);
  Sim.Engine.spawn engine (fun () ->
      dev.Lfs.Dev.write ~blk:seg_blocks ~data:line;
      dev.Lfs.Dev.share_into ~blk:seg_blocks ~count:seg_blocks ~dst:image ~dst_blk:0;
      match Footprint.write_seg_stream_from fp ~vol:0 ~seg:0 ~src:image ~src_blk:0 ignore_chunk with
      | Footprint.Written -> ()
      | Footprint.End_of_medium -> failwith "micro: end of medium");
  Sim.Engine.run engine;
  let taken s = Device.Blockstore.pages_taken s in
  Printf.printf "  %-32s %4d data blocks %4d disk pages %4d volume pages\n" "staged line write-out" k
    (taken (Device.Disk.store disk))
    (taken (Device.Jukebox.volume_store jb 0))

let run () =
  print_endline "\n== Micro-benchmarks (real CPU time, Bechamel) ==";
  Printf.printf "crc32 kernel: %s\n" Util.Crc32.kernel;
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  List.iter
    (fun (test, bytes) ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (
              match bytes with
              | Some n -> Printf.printf "  %-32s %10.1f ns/op %8.0f MB/s\n" name est (float n *. 1e3 /. est)
              | None -> Printf.printf "  %-32s %10.1f ns/op\n" name est)
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    benchmarks;
  segment_moves ();
  List.iter staged_line [ 1; 32; 95; 256 ]
