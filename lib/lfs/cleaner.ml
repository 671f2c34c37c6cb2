type policy = Greedy | Cost_benefit

let policy_name = function Greedy -> "greedy" | Cost_benefit -> "cost_benefit"

type result = { segments_cleaned : int; blocks_moved : int; bytes_moved : int }

let select_victims fs ~policy ~limit =
  let su = Fs.seguse fs in
  let candidates = ref [] in
  Segusage.iter su (fun seg e ->
      if
        e.state = Segusage.Dirty && seg <> Fs.cur_seg fs && seg <> Fs.next_seg fs
      then candidates := (seg, e) :: !candidates);
  let seg_bytes = Param.seg_bytes (Fs.param fs) in
  let score (_, (e : Segusage.entry)) =
    match policy with
    | Greedy -> float_of_int e.live_bytes
    | Cost_benefit ->
        let u = float_of_int e.live_bytes /. float_of_int seg_bytes in
        let age = Float.max 1.0 (Fs.now fs -. e.lastmod) in
        (* higher benefit = better victim; negate for ascending sort *)
        -.((1.0 -. u) *. age /. (1.0 +. u))
  in
  let ranked = List.sort (fun a b -> Float.compare (score a) (score b)) !candidates in
  let victims = List.filteri (fun i _ -> i < limit) ranked in
  if victims <> [] && Obs.Decision.enabled () then begin
    let now = Fs.now fs in
    let cand ((seg, (e : Segusage.entry)) as c) =
      Obs.Decision.candidate seg ~score:(score c)
        ~feats:
          {
            Obs.Decision.idle = 0.0;
            size = e.live_bytes;
            util = float_of_int e.live_bytes /. float_of_int seg_bytes;
            temp = 0.0;
            age = Float.max 0.0 (now -. e.lastmod);
          }
    in
    let rest = List.filteri (fun i _ -> i >= limit) ranked in
    Obs.Decision.emit ~now ~site:Obs.Decision.Clean_victims ~policy:(policy_name policy)
      ~chosen:(List.map cand victims) ~rejected:(List.map cand rest) ()
  end;
  List.map fst victims

let fold_partials ?(stop = max_int) fs seg f acc =
  let p = Fs.param fs in
  let base = Layout.seg_base p seg in
  let stop = min (p.Param.seg_blocks - 1) stop in
  let rec go off acc =
    if off >= stop then acc
    else
      match Fs.with_block fs (base + off) Summary.deserialize with
      | Error _ -> acc
      | Ok (sum, data_crc) ->
          let nb = Summary.nblocks_total sum in
          if off + 1 + nb > p.Param.seg_blocks then acc
          else go (off + 1 + nb) (f acc ~off ~sum ~data_crc)
  in
  go 0 acc

let scan_segment fs seg =
  let p = Fs.param fs in
  let base = Layout.seg_base p seg in
  (* records accumulate in reverse across partials: one reversal at the
     end instead of an append per partial *)
  List.rev
    (fold_partials fs seg
       (fun acc ~off ~sum ~data_crc:_ ->
         let cursor = ref (base + off + 1) in
         let acc =
           List.fold_left
             (fun acc fi ->
               List.fold_left
                 (fun acc bkey ->
                   let r = (!cursor, fi.Summary.fi_ino, bkey) in
                   incr cursor;
                   r :: acc)
                 acc fi.Summary.fi_blocks)
             acc sum.Summary.finfos
         in
         List.fold_left
           (fun acc addr -> (addr, -1, Bkey.Data 0) :: acc)
           acc sum.Summary.inode_addrs)
       [])

let is_live fs ~addr ~inum ~version bkey =
  let e = Imap.get (Fs.imap fs) inum in
  if e.addr = -1 || e.version <> version then false
  else
    match Fs.get_inode fs inum with
    | exception Not_found -> false
    | ino -> Fs.lookup_addr fs ino bkey = addr

let collect_segment fs seg =
  let p = Fs.param fs in
  let dev = Fs.dev fs in
  let base = Layout.seg_base p seg in
  let moved = ref 0 in
  ignore
    (fold_partials fs seg
       (fun () ~off ~sum ~data_crc:_ ->
         let cursor = ref (base + off + 1) in
         (* live file blocks: drag them into the cache dirty so the next
            flush re-homes them at the log tail *)
         List.iter
           (fun fi ->
             let inum = fi.Summary.fi_ino in
             List.iter
               (fun bkey ->
                 let addr = !cursor in
                 incr cursor;
                 if is_live fs ~addr ~inum ~version:fi.Summary.fi_version bkey then begin
                   let key = Bcache.key inum bkey in
                   let cache = Fs.bcache fs in
                   if not (Bcache.is_dirty cache key) then begin
                     (match Bcache.find cache key with
                     | d when d != Bcache.miss -> Bcache.mark_dirty cache key
                     | _ ->
                         (* the block keeps the sum it was written with,
                            so bytes damaged on the disk since then fail
                            their new partial's checksum instead of
                            being summed afresh *)
                         let b = Bcache.take cache in
                         dev.Dev.read_into ~blk:addr ~count:1 ~dst:(Util.Bufpool.bytes b)
                           ~dst_off:0;
                         Bcache.put_dirty_buf cache key ~old_addr:addr
                           ~crc:(Fs.written_crc fs addr) b);
                     incr moved
                   end
                 end)
               fi.Summary.fi_blocks)
           sum.Summary.finfos;
         (* live inodes: re-dirty them so they are re-packed elsewhere *)
         List.iter
           (fun inode_addr ->
             Fs.with_block fs inode_addr (fun block ->
                 Inode.iter_block block (fun disk_ino ->
                     let inum = disk_ino.Inode.inum in
                     if inum > 0 && inum < Imap.max_inodes (Fs.imap fs) then begin
                       let e = Imap.get (Fs.imap fs) inum in
                       if e.addr = inode_addr && e.version = disk_ino.Inode.version then begin
                         let ino = Fs.get_inode fs inum in
                         Fs.mark_inode_dirty fs ino;
                         incr moved
                       end
                     end)))
           sum.Summary.inode_addrs;
         ())
       ());
  !moved

let clean_segments fs segs =
  Fs.set_cleaning fs true;
  Fun.protect ~finally:(fun () -> Fs.set_cleaning fs false) @@ fun () ->
  let bs = (Fs.param fs).Param.block_size in
  let moved = List.fold_left (fun acc seg -> acc + collect_segment fs seg) 0 segs in
  (* persist the moves before declaring the victims empty *)
  Fs.checkpoint fs;
  List.iter (fun seg -> Segusage.set_state (Fs.seguse fs) seg Segusage.Clean) segs;
  Fs.note_segments_freed fs;
  { segments_cleaned = List.length segs; blocks_moved = moved; bytes_moved = moved * bs }

let clean_once fs ?(policy = Cost_benefit) ?(max_segments = 4) () =
  (* when the log is nearly full, clean one victim at a time: copying a
     batch forward needs log space of its own *)
  let max_segments = min max_segments (max 1 (Fs.nclean fs - 1)) in
  match select_victims fs ~policy ~limit:max_segments with
  | [] -> { segments_cleaned = 0; blocks_moved = 0; bytes_moved = 0 }
  | victims ->
      let before = Fs.nclean fs in
      let r = clean_segments fs victims in
      if Obs.Decision.enabled () then begin
        (* write-amplification per policy: bytes copied forward against
           net log space reclaimed by the pass *)
        let seg_bytes = Param.seg_bytes (Fs.param fs) in
        Obs.Decision.note_cleaned ~policy:(policy_name policy)
          ~segments:r.segments_cleaned ~bytes_moved:r.bytes_moved
          ~bytes_reclaimed:(max 0 ((Fs.nclean fs - before) * seg_bytes))
      end;
      r

let clean_until fs ?(policy = Cost_benefit) ~target_clean () =
  let total = ref { segments_cleaned = 0; blocks_moved = 0; bytes_moved = 0 } in
  let rec go () =
    if Fs.nclean fs < target_clean then begin
      let before = Fs.nclean fs in
      let r =
        (* a cleaning pass that cannot fit its own copies stops the loop
           rather than killing the caller; the disk is simply full. The
           stall is made visible (trace instant + counter) rather than
           silently absorbed, and anything other than No_space — a
           policy or I/O bug — propagates instead of hiding here. *)
        match clean_once fs ~policy () with
        | r -> r
        | exception Fs.No_space ->
            Sim.Trace.instant ~track:"cleaner" ~cat:"cleaner" "clean-nospace";
            Obs.Decision.count_event "cleaner.nospace_stalls";
            { segments_cleaned = 0; blocks_moved = 0; bytes_moved = 0 }
        | exception e ->
            Sim.Trace.instant ~track:"cleaner" ~cat:"cleaner" "clean-error"
              ~args:[ ("exn", Printexc.to_string e) ];
            raise e
      in
      (* cleaning segments full of live data only shuffles it; stop when
         a pass yields no net gain (the space must come from deletion or
         migration instead) *)
      if r.segments_cleaned > 0 && Fs.nclean fs > before then begin
        total :=
          {
            segments_cleaned = !total.segments_cleaned + r.segments_cleaned;
            blocks_moved = !total.blocks_moved + r.blocks_moved;
            bytes_moved = !total.bytes_moved + r.bytes_moved;
          };
        go ()
      end
    end
  in
  go ();
  !total

let spawn_daemon fs ?(policy = Cost_benefit) ?(period = 5.0) ~low_water ~high_water () =
  let stopped = ref false in
  Sim.Engine.spawn (Fs.engine fs) ~name:"cleaner" (fun () ->
      let rec loop () =
        Sim.Engine.delay period;
        if not !stopped then begin
          if Fs.nclean fs < low_water then
            ignore (clean_until fs ~policy ~target_clean:high_water ());
          loop ()
        end
      in
      loop ());
  fun () -> stopped := true
