let render_map fs =
  let buf = Buffer.create 128 in
  Segusage.iter (Fs.seguse fs) (fun _ e ->
      Buffer.add_char buf
        (match e.Segusage.state with
        | Segusage.Clean -> '.'
        | Segusage.Dirty -> 'd'
        | Segusage.Active -> 'A'
        | Segusage.Cached -> 'C'));
  Buffer.contents buf

let render_segments ?(limit = 16) fs =
  let buf = Buffer.create 1024 in
  let line fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  let shown = ref 0 in
  Segusage.iter (Fs.seguse fs) (fun seg e ->
      if e.Segusage.state <> Segusage.Clean && !shown < limit then begin
        incr shown;
        line "segment %3d  %-6s live=%-8d%s@." seg
          (Format.asprintf "%a" Segusage.pp_state e.Segusage.state)
          e.Segusage.live_bytes
          (if e.Segusage.cache_tag >= 0 then
             Printf.sprintf "  caches tertiary seg %d" e.Segusage.cache_tag
           else "");
        (* a cached segment holds a tertiary image, not the log *)
        if e.Segusage.state <> Segusage.Cached then
          Cleaner.fold_segment fs (Cleaner.log_segment fs seg)
            {
              Cleaner.file_block =
                (fun () ~addr ~inum ~version:_ bkey ->
                  line "    blk %-8d ino %-5d %a@." addr inum Bkey.pp bkey);
              inode_block = (fun () ~addr -> line "    blk %-8d [inode block]@." addr);
              live_inode = (fun () ~addr:_ ~inum:_ -> ());
            }
            ()
      end);
  Buffer.contents buf

let render_stats fs =
  let cache = Fs.bcache fs in
  let hits = Bcache.hits cache and misses = Bcache.misses cache in
  let rate =
    if hits + misses = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
  in
  Printf.sprintf
    "segments written: %d  partials: %d  clean: %d/%d  live total: %d bytes  bcache: %d+%d \
     entries, %.1f%% hits"
    (Fs.segments_written fs) (Fs.partials_written fs) (Fs.nclean fs)
    (Fs.param fs).Param.nsegs
    (Segusage.live_total (Fs.seguse fs))
    (Bcache.clean_count cache) (Bcache.dirty_count cache) rate

let live_audit fs =
  let bs = (Fs.param fs).Param.block_size in
  let out = ref [] in
  Segusage.iter (Fs.seguse fs) (fun seg e ->
      match e.Segusage.state with
      | Segusage.Clean | Segusage.Cached -> ()
      | Segusage.Dirty | Segusage.Active ->
          let actual =
            Cleaner.fold_segment fs (Cleaner.log_segment fs seg)
              {
                Cleaner.file_block =
                  (fun n ~addr ~inum ~version bkey ->
                    if Cleaner.is_live fs ~addr ~inum ~version bkey then n + bs else n);
                inode_block = (fun n ~addr:_ -> n);
                live_inode = (fun n ~addr:_ ~inum:_ -> n + Inode.isize);
              }
              0
          in
          out := (seg, e.Segusage.live_bytes, actual) :: !out);
  List.rev !out

(* Every partial in the log's Dirty and Active segments must still match
   the data checksum its summary recorded. The active segment ends at
   the log head: past it lie stale blocks of an earlier incarnation.
   Cached segments hold tertiary images, not the log. *)
let data_sum_problems fs =
  let prm = Fs.param fs in
  let dev = Fs.dev fs in
  let problems = ref [] in
  let sbuf = Util.Bufpool.take (Fs.segbufs fs) in
  let buf = Util.Bufpool.bytes sbuf in
  Segusage.iter (Fs.seguse fs) (fun seg e ->
      match e.Segusage.state with
      | Segusage.Clean | Segusage.Cached -> ()
      | Segusage.Dirty | Segusage.Active ->
          let base = Layout.seg_base prm seg in
          Cleaner.fold_partials fs (Cleaner.log_segment fs seg)
            (fun () ~off ~sum ~data_crc ->
              let nb = Summary.nblocks_total sum in
              if nb > 0 then begin
                dev.Dev.read_into ~blk:(base + off + 1) ~count:nb ~dst:buf ~dst_off:0;
                let actual = Util.Crc32.bytes ~len:(nb * prm.Param.block_size) buf in
                if actual <> data_crc then
                  problems :=
                    Printf.sprintf
                      "segment %d partial at offset %d: data checksum %08x, summary records %08x"
                      seg off actual data_crc
                    :: !problems
              end)
            ());
  Util.Bufpool.give (Fs.segbufs fs) sbuf;
  List.rev !problems

let fsck fs =
  let problems = ref (List.rev (Fs.check fs @ data_sum_problems fs)) in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let prm = Fs.param fs in
  let tertiary_ok addr =
    match Fs.tertiary_config fs with
    | None -> false
    | Some tc -> addr < tc.Superblock.addr_space_blocks
  in
  (* every mapped block must point into a non-clean segment or valid
     tertiary space *)
  Fs.iter_files fs (fun inum entry ->
      if entry.Imap.addr > 0 || inum >= 1 then begin
        match Fs.get_inode fs inum with
        | exception Not_found ->
            if entry.Imap.addr > 0 then complain "inode %d unreadable" inum
        | ino ->
            File.iter_assigned_blocks (Fs.map fs) ino (fun bkey addr ->
                match Layout.seg_of_addr prm addr with
                | Some seg ->
                    if (Segusage.get (Fs.seguse fs) seg).Segusage.state = Segusage.Clean then
                      complain "ino %d %s at %d sits in clean segment %d" inum
                        (Format.asprintf "%a" Bkey.pp bkey)
                        addr seg
                | None ->
                    if not (tertiary_ok addr) then
                      complain "ino %d %s at invalid address %d" inum
                        (Format.asprintf "%a" Bkey.pp bkey)
                        addr)
      end);
  (* namespace: entries resolve, link counts add up *)
  let link_counts = Hashtbl.create 64 in
  let bump inum = Hashtbl.replace link_counts inum (1 + Option.value ~default:0 (Hashtbl.find_opt link_counts inum)) in
  bump 2 (* root's "." *);
  bump 2 (* root's ".." *);
  (try
     Dir.walk fs "/" (fun path ino ->
         bump ino.Inode.inum;
         if ino.Inode.kind = Inode.Dir then begin
           bump ino.Inode.inum (* its own "." *);
           (* its ".." credits the parent *)
           match Dir.lookup fs ino ".." with
           | Some parent -> bump parent
           | None -> complain "directory %s lacks .." path
         end)
   with e -> complain "walk failed: %s" (Printexc.to_string e));
  Hashtbl.iter
    (fun inum expected ->
      match Fs.get_inode fs inum with
      | exception Not_found -> complain "linked inode %d missing" inum
      | ino ->
          if ino.Inode.nlink <> expected then
            complain "inode %d nlink %d but %d references" inum ino.Inode.nlink expected)
    link_counts;
  List.rev !problems
