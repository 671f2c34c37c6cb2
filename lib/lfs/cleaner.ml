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

type source = { base : int; stop : int; read : 'b. int -> (Bytes.t -> 'b) -> 'b }

let log_segment fs seg =
  let p = Fs.param fs in
  {
    base = Layout.seg_base p seg;
    (* past the log head lie stale blocks of an earlier incarnation *)
    stop = (if seg = Fs.cur_seg fs then Fs.cur_off fs else p.Param.seg_blocks);
    read = (fun addr f -> Fs.with_block fs addr f);
  }

let fold_partials fs src f acc =
  let seg_blocks = (Fs.param fs).Param.seg_blocks in
  let stop = min (seg_blocks - 1) src.stop in
  let rec go off acc =
    if off >= stop then acc
    else
      match src.read (src.base + off) Summary.deserialize with
      | Error _ -> acc
      | Ok (sum, data_crc) ->
          let next = off + 1 + Summary.nblocks_total sum in
          if next > seg_blocks then acc
          else
            let acc = f acc ~off ~sum ~data_crc in
            (* a partial with no successor (a staging line's) ends the chain *)
            if sum.Summary.ss_next = -1 then acc else go next acc
  in
  go 0 acc

type 'a visit = {
  file_block : 'a -> addr:int -> inum:int -> version:int -> Bkey.t -> 'a;
  inode_block : 'a -> addr:int -> 'a;
  live_inode : 'a -> addr:int -> inum:int -> 'a;
}

let fold_segment fs src v acc =
  let imap = Fs.imap fs in
  let rec file_blocks acc addr inum version = function
    | [] -> acc
    | bkey :: rest ->
        file_blocks (v.file_block acc ~addr ~inum ~version bkey) (addr + 1) inum version rest
  in
  let rec finfos acc addr = function
    | [] -> acc
    | fi :: rest ->
        let blocks = fi.Summary.fi_blocks in
        let acc = file_blocks acc addr fi.Summary.fi_ino fi.Summary.fi_version blocks in
        finfos acc (addr + List.length blocks) rest
  in
  (* an inode in an inode block is live iff the inode map points at that
     block with the inode's version *)
  let inode_block acc addr =
    let acc = v.inode_block acc ~addr in
    src.read addr (fun block ->
        let acc = ref acc in
        Inode.iter_block block (fun ino ->
            let inum = ino.Inode.inum in
            if inum > 0 && inum < Imap.max_inodes imap then begin
              let e = Imap.get imap inum in
              if e.Imap.addr = addr && e.Imap.version = ino.Inode.version then
                acc := v.live_inode !acc ~addr ~inum
            end);
        !acc)
  in
  fold_partials fs src
    (fun acc ~off ~sum ~data_crc:_ ->
      let acc = finfos acc (src.base + off + 1) sum.Summary.finfos in
      List.fold_left inode_block acc sum.Summary.inode_addrs)
    acc

let is_live fs ~addr ~inum ~version bkey =
  let e = Imap.get (Fs.imap fs) inum in
  if e.addr = -1 || e.version <> version then false
  else
    match Fs.get_inode fs inum with
    | exception Not_found -> false
    | ino -> Fs.lookup_addr fs ino bkey = addr

let collect_segment fs seg =
  let map = Fs.map fs in
  let dev = map.Bmap.dev and cache = map.cache in
  fold_segment fs (log_segment fs seg)
    {
      (* live file blocks: drag them into the cache dirty so the next
         flush re-homes them at the log tail *)
      file_block =
        (fun moved ~addr ~inum ~version bkey ->
          if not (is_live fs ~addr ~inum ~version bkey) then moved
          else
            let key = Bcache.key inum bkey in
            if Bcache.is_dirty cache key then moved
            else begin
              (match Bcache.find cache key with
              | d when d != Bcache.miss -> Bcache.mark_dirty cache key
              | _ ->
                  (* the block keeps the sum it was written with, so
                     bytes damaged on the disk since then fail their new
                     partial's checksum instead of being summed afresh *)
                  let b = Bcache.take cache in
                  dev.Dev.read_into ~blk:addr ~count:1 ~dst:(Util.Bufpool.bytes b) ~dst_off:0;
                  Bcache.put_dirty_buf cache key ~old_addr:addr ~crc:(Bmap.written_crc map addr) b);
              moved + 1
            end);
      inode_block = (fun moved ~addr:_ -> moved);
      (* live inodes: re-dirty them so they are re-packed elsewhere *)
      live_inode =
        (fun moved ~addr:_ ~inum ->
          Fs.mark_inode_dirty fs (Fs.get_inode fs inum);
          moved + 1);
    }
    0

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
