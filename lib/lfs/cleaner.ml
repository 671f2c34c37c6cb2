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

type source = {
  base : int;
  stop : int;
  load : unit -> unit;
  read_into : addr:int -> dst:Bytes.t -> unit;
  unload : unit -> unit;
}

let log_segment fs seg =
  let p = Fs.param fs in
  let base = Layout.seg_base p seg in
  (* past the log head lie stale blocks of an earlier incarnation *)
  let stop = if seg = Fs.cur_seg fs then Fs.cur_off fs else p.Param.seg_blocks in
  let image = ref None in
  {
    base;
    stop;
    (* one timed read of the used prefix: the image shares its pages *)
    load =
      (fun () ->
        if !image <> None then invalid_arg "Cleaner.log_segment: walk already open";
        let img = Fs.take_seg_image fs in
        image := Some img;
        if stop > 0 then (Fs.dev fs).Dev.share_into ~blk:base ~count:stop ~dst:img ~dst_blk:0);
    read_into =
      (fun ~addr ~dst ->
        match !image with
        | Some img -> Device.Blockstore.read_into img ~blk:(addr - base) ~count:1 ~dst ~dst_off:0
        | None -> invalid_arg "Cleaner.log_segment: read outside a walk");
    unload =
      (fun () ->
        Option.iter (Fs.give_seg_image fs) !image;
        image := None);
  }

let fold_partials fs src f acc =
  let seg_blocks = (Fs.param fs).Param.seg_blocks in
  let stop = min (seg_blocks - 1) src.stop in
  let cache = Fs.bcache fs in
  let rec go buf off acc =
    if off >= stop then acc
    else begin
      src.read_into ~addr:(src.base + off) ~dst:buf;
      match Summary.deserialize buf with
      | Error _ -> acc
      | Ok (sum, data_crc) ->
          let next = off + 1 + Summary.nblocks_total sum in
          if next > seg_blocks then acc
          else
            let acc = f acc ~off ~sum ~data_crc in
            (* a partial with no successor (a staging line's) ends the chain *)
            if sum.Summary.ss_next = -1 then acc else go buf next acc
    end
  in
  Fun.protect ~finally:src.unload @@ fun () ->
  src.load ();
  (* a walk that raised leaves its summary buffer to the GC *)
  let b = Bcache.take cache in
  let acc = go (Util.Bufpool.bytes b) 0 acc in
  Bcache.give cache b;
  acc

type 'a visit = {
  file_block : 'a -> addr:int -> inum:int -> version:int -> Bkey.t -> 'a;
  inode_block : 'a -> addr:int -> 'a;
  live_inode : 'a -> addr:int -> inum:int -> 'a;
}

let fold_segment fs src v acc =
  let imap = Fs.imap fs and cache = Fs.bcache fs in
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
    let acc = ref (v.inode_block acc ~addr) in
    let b = Bcache.take cache in
    let block = Util.Bufpool.bytes b in
    src.read_into ~addr ~dst:block;
    Inode.iter_block block (fun ino ->
        let inum = ino.Inode.inum in
        if inum > 0 && inum < Imap.max_inodes imap then begin
          let e = Imap.get imap inum in
          if e.Imap.addr = addr && e.Imap.version = ino.Inode.version then
            acc := v.live_inode !acc ~addr ~inum
        end);
    Bcache.give cache b;
    !acc
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
  let cache = map.Bmap.cache in
  let src = log_segment fs seg in
  fold_segment fs src
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
                  (* one copy from the segment image; the block keeps
                     the sum it was written with, so bytes damaged on
                     the disk since then fail their new partial's
                     checksum instead of being summed afresh *)
                  let b = Bcache.take cache in
                  src.read_into ~addr ~dst:(Util.Bufpool.bytes b);
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
