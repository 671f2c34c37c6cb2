(* Bechamel micro-benchmarks of the hot CPU paths: summary checksums and
   serialization, inode packing, cleaner victim ranking, Zipf sampling.
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
    benchmarks
