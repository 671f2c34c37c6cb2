(* The one service pipeline, checked differentially: every cell of the
   configuration matrix (io mode x streaming fetch x streaming
   write-out) runs the same migrate/eject/read-back scenario and must
   read back the same bytes and leave the same bytes on every tertiary
   volume. Plus the settings' own contracts: Serial never overlaps its
   phases, and a torn tertiary write resumes at its written prefix, so
   WORM volumes take the same path as rewritable media. *)

open Highlight
open Lfs

let check = Alcotest.check

let in_sim_e f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> (r, e) | None -> Alcotest.fail "sim process did not finish"

let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))
let seg_bytes = 16 * 4096

let parse_ok text =
  match Sim.Fault.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.fail ("fault plan did not parse: " ^ msg)

type cell = { io_mode : State.io_mode; sfetch : bool; swrite : bool }

let cell_name c =
  Printf.sprintf "%s/fetch:%s/writeout:%s"
    (match c.io_mode with State.Serial -> "serial" | State.Pipelined -> "pipelined")
    (if c.sfetch then "stream" else "block")
    (if c.swrite then "stream" else "block")

let matrix =
  List.concat_map
    (fun io_mode ->
      List.concat_map
        (fun sfetch -> List.map (fun swrite -> { io_mode; sfetch; swrite }) [ true; false ])
        [ true; false ])
    [ State.Pipelined; State.Serial ]

type outcome = {
  reads : (string * Bytes.t) list;
  media : string;  (** digest of every tertiary volume's payload blocks *)
  stats : Hl.stats;
  problems : string list;  (** Hl.check *)
  jb_written : int;
  writeout_failures : int;
  blocked : string list;
}

(* Every written block of every volume except each segment's summary
   block: a summary stamps its staging time ([ss_create]), which moves
   with the pipeline's timing; the payload must not. *)
let media_digest jb =
  let buf = Buffer.create 4096 in
  for vol = 0 to Device.Jukebox.nvolumes jb - 1 do
    let store = Device.Jukebox.volume_store jb vol in
    let block = Bytes.create (Device.Blockstore.block_size store) in
    Buffer.add_string buf (Printf.sprintf "vol%d:" vol);
    for blk = 0 to Device.Blockstore.nblocks store - 1 do
      if blk mod 16 <> 0 && Device.Blockstore.is_written store blk then begin
        Buffer.add_string buf (string_of_int blk);
        Device.Blockstore.read_into store ~blk ~count:1 ~dst:block ~dst_off:0;
        Buffer.add_bytes buf block
      end
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Write [files], migrate them all (under [faults], at most
   [max_attempts] tries per device phase), flush whatever write-out
   failed for good, eject the cached copies, then read them back from
   two concurrent readers with sequential prefetch on: demand fetches,
   prefetches, landings and write-outs all cross the pipeline. *)
let run_cell ?(media = Device.Jukebox.hp6300_platter) ?(bus = false) ?faults ?max_attempts
    ?bcache_blocks c files =
  let outcome, e =
    in_sim_e (fun engine ->
        let prm = Param.for_tests ~seg_blocks:16 ~nsegs:64 () in
        let prm =
          { prm with Param.bcache_blocks = Option.value bcache_blocks ~default:prm.bcache_blocks }
        in
        (* a timed disk, so the cache-disk phases take real sim time *)
        let disk = Device.Disk.create engine Device.Disk.rz57 ~name:"rz57" in
        let bus = if bus then Some (Device.Scsi_bus.create engine "scsi0") else None in
        let jb =
          Device.Jukebox.create engine ?bus ~drives:2 ~nvolumes:4
            ~vol_capacity:(8 * prm.Param.seg_blocks) ~media
            ~changer:Device.Jukebox.hp6300_changer "jb"
        in
        let fp = Footprint.create ~seg_blocks:prm.Param.seg_blocks ~segs_per_volume:8 [ jb ] in
        let hl =
          Hl.mkfs engine prm ~disk:(Dev.of_disk disk) ~fp ~cache_segs:12 ~io_mode:c.io_mode ()
        in
        Hl.set_streaming_fetch hl c.sfetch;
        Hl.set_streaming_writeout hl c.swrite;
        Hl.set_prefetch_sequential hl ~depth:2;
        let st = Hl.state hl in
        (* 4-block chunks: a 16-block segment crosses several watermarks *)
        st.State.stream_chunk_blocks <- 4;
        List.iter (fun (path, data) -> Hl.write_file hl path data) files;
        Fs.checkpoint (Hl.fs hl);
        Option.iter
          (fun plan -> Sim.Fault.install engine ~metrics:(Hl.metrics hl) (parse_ok plan))
          faults;
        let attempts = st.State.retry.State.max_attempts in
        Option.iter (fun n -> st.State.retry.State.max_attempts <- n) max_attempts;
        ignore (Migrator.migrate_paths st (List.map fst files));
        Sim.Fault.clear ();
        st.State.retry.State.max_attempts <- attempts;
        (* a failed write-out leaves its line Staging: a new ticket *)
        ignore (Migrator.flush_staged st ());
        let paths = List.map fst files in
        Hl.eject_tertiary_copies hl ~paths;
        let got = Hashtbl.create 8 in
        let remaining = ref 2 in
        let done_cv = Sim.Condvar.create () in
        let reader name mine =
          Sim.Engine.spawn engine ~name (fun () ->
              List.iter (fun p -> Hashtbl.replace got p (Hl.read_file hl p ())) mine;
              decr remaining;
              Sim.Condvar.broadcast done_cv)
        in
        reader "reader-even" (List.filteri (fun i _ -> i mod 2 = 0) paths);
        reader "reader-odd" (List.filteri (fun i _ -> i mod 2 = 1) paths);
        while !remaining > 0 do
          Sim.Condvar.wait done_cv
        done;
        let outcome =
          {
            reads = List.map (fun p -> (p, Hashtbl.find got p)) paths;
            media = media_digest jb;
            stats = Hl.stats hl;
            problems = Hl.check hl;
            jb_written = Device.Jukebox.bytes_written jb;
            writeout_failures =
              Sim.Metrics.count
                (Sim.Metrics.counter (Hl.metrics hl) "service.writeout_failures");
            blocked = [];
          }
        in
        Hl.shutdown_service hl;
        outcome)
  in
  { outcome with blocked = Sim.Engine.blocked_process_names e }

let check_cell name files o =
  List.iter
    (fun (path, data) ->
      check Alcotest.bool
        (Printf.sprintf "%s: %s read back verbatim" name path)
        true
        (Bytes.equal data (List.assoc path o.reads)))
    files;
  check (Alcotest.list Alcotest.string) (name ^ ": invariants") [] o.problems;
  check (Alcotest.list Alcotest.string) (name ^ ": nothing left blocked") [] o.blocked

let sample_files =
  List.init 5 (fun i ->
      (Printf.sprintf "/m%d" i, bytes_pattern ((i * seg_bytes / 3) + 3000 + (i * 91)) (17 + i)))

(* Random file sets: every cell reads back the same bytes and writes the
   same tertiary payload as the default cell (pipelined, streaming both
   ways), with demand fetches really crossing the pipeline. *)
let prop_matrix_agrees =
  QCheck.Test.make ~name:"every configuration agrees byte for byte" ~count:4
    QCheck.(pair (int_range 1 5) (int_bound 1000))
    (fun (nfiles, seed) ->
      let files =
        List.init nfiles (fun i ->
            let len = 1 + (((seed * 7919) + (i * 104729)) mod (3 * seg_bytes)) in
            (Printf.sprintf "/r%d" i, bytes_pattern len (seed + i)))
      in
      let reference = run_cell (List.hd matrix) files in
      List.for_all
        (fun c ->
          let o = if c == List.hd matrix then reference else run_cell c files in
          o.problems = [] && o.blocked = [] && o.media = reference.media
          && o.stats.Hl.demand_fetches > 0
          && List.for_all (fun (p, data) -> Bytes.equal data (List.assoc p o.reads)) files)
        matrix)

(* Serial runs one transfer phase at a time: its busy time never
   overlaps, for fetches or write-outs. The default pipelined cell does
   overlap both. *)
let test_serial_never_overlaps () =
  let serial = run_cell { io_mode = State.Serial; sfetch = true; swrite = true } sample_files in
  check (Alcotest.float 1e-9) "serial io overlap" 1.0 serial.stats.Hl.io_overlap;
  check (Alcotest.float 1e-9) "serial write-out overlap" 1.0 serial.stats.Hl.writeout_overlap;
  let piped = run_cell (List.hd matrix) sample_files in
  check Alcotest.bool "pipelined phases overlap" true (piped.stats.Hl.io_overlap > 1.0);
  check Alcotest.bool "streaming write-out overlaps within the segment" true
    (piped.stats.Hl.writeout_overlap > 1.0)

(* A media error at the drive, or a bus reset during the transfer, tears
   a tertiary write after its first chunk; the retry resumes at the
   written prefix, so the drive moves exactly one segment image per
   write-out. On WORM media a rewrite would raise [Worm_overwrite], so
   WORM volumes take the same path, overlapped or not. *)
let test_torn_write_resumes () =
  List.iter
    (fun ((media, swrite), (bus, faults)) ->
      let c = { io_mode = State.Pipelined; sfetch = true; swrite } in
      let name = media.Device.Jukebox.media_name ^ " " ^ cell_name c ^ " " ^ faults in
      let files = [ ("/w", bytes_pattern (12 * 4096) 5) ] in
      let o = run_cell ~media ~bus ~faults c files in
      check_cell name files o;
      check Alcotest.bool (name ^ ": the torn chunk was retried") true
        (o.stats.Hl.io_retries >= 1);
      check Alcotest.int (name ^ ": no failure surfaced") 0 o.stats.Hl.io_failures;
      check Alcotest.int
        (name ^ ": each block went to the media once")
        (o.stats.Hl.writeouts * seg_bytes) o.jb_written)
    (List.concat_map
       (fun media ->
         List.concat_map
           (fun swrite ->
             [
               ((media, swrite), (false, "jb:drive* write op=2 media_error transient"));
               ((media, swrite), (true, "scsi:scsi0 xfer op=2 bus_reset transient"));
             ])
           [ true; false ])
       [ Device.Jukebox.hp6300_platter; Device.Jukebox.sony_worm ])

(* The same tear with a single attempt per phase: the write-out fails
   for good with its first chunk on the media and the line still
   Staging. The prefix is kept on the line, so the next ticket for it
   ([Migrator.flush_staged]) resumes there — on WORM a restart from
   block 0 would raise [Worm_overwrite] and kill the tertiary worker. *)
let test_failed_writeout_resumes_next_ticket () =
  List.iter
    (fun (media, c) ->
      let name = media.Device.Jukebox.media_name ^ " " ^ cell_name c in
      let files = [ ("/w", bytes_pattern (12 * 4096) 5) ] in
      let o =
        run_cell ~media ~max_attempts:1 ~faults:"jb:drive* write op=2 media_error transient" c
          files
      in
      check_cell name files o;
      check Alcotest.int (name ^ ": the first ticket failed") 1 o.writeout_failures;
      check Alcotest.int
        (name ^ ": each block went to the media once")
        (o.stats.Hl.writeouts * seg_bytes) o.jb_written)
    (List.concat_map
       (fun media ->
         List.map
           (fun (io_mode, swrite) -> (media, { io_mode; sfetch = true; swrite }))
           [ (State.Pipelined, true); (State.Pipelined, false); (State.Serial, true) ])
       [ Device.Jukebox.hp6300_platter; Device.Jukebox.sony_worm ])

(* The same scenario on a 2-block buffer cache, where nearly every block
   read evicts and recycles a buffer: every cell still reads back the
   same bytes and writes the same tertiary payload as the default cell
   on that cache. (The payload's layout depends on the cache size.) *)
let test_tiny_buffer_cache () =
  let reference = run_cell ~bcache_blocks:2 (List.hd matrix) sample_files in
  List.iter
    (fun c ->
      let name = cell_name c ^ " with a 2-block buffer cache" in
      let o = if c == List.hd matrix then reference else run_cell ~bcache_blocks:2 c sample_files in
      check_cell name sample_files o;
      check Alcotest.string (name ^ ": tertiary payload") reference.media o.media)
    matrix

let suite =
  [
    ( "service.matrix",
      [
        QCheck_alcotest.to_alcotest prop_matrix_agrees;
        Alcotest.test_case "serial never overlaps phases" `Quick test_serial_never_overlaps;
        Alcotest.test_case "torn write resumes, WORM included" `Quick test_torn_write_resumes;
        Alcotest.test_case "failed write-out resumes on the next ticket" `Quick
          test_failed_writeout_resumes_next_ticket;
        Alcotest.test_case "every cell agrees on a 2-block buffer cache" `Quick
          test_tiny_buffer_cache;
      ] );
  ]
