open Sim

type media_kind = Magneto_optic | Tape | Worm

type media_profile = {
  kind : media_kind;
  media_name : string;
  block_size : int;
  capacity_blocks : int;
  read_rate : float;
  write_rate : float;
  seek_const : float;
  seek_per_block : float;
}

let hp6300_platter =
  {
    kind = Magneto_optic;
    media_name = "HP 6300 MO platter";
    block_size = 4096;
    capacity_blocks = 163840 (* 640 MB *);
    read_rate = 451.0 *. 1024.0;
    write_rate = 204.0 *. 1024.0;
    seek_const = 0.095;
    seek_per_block = 0.0;
  }

let metrum_tape =
  {
    kind = Tape;
    media_name = "Metrum VHS cartridge";
    block_size = 4096;
    capacity_blocks = 3801088 (* 14.5 GB *);
    read_rate = 1100.0 *. 1024.0;
    write_rate = 1100.0 *. 1024.0;
    seek_const = 8.0 (* thread/locate startup *);
    seek_per_block = 2.0e-5 (* high-speed search, ~200 MB/s of tape *);
  }

let sony_worm =
  {
    kind = Worm;
    media_name = "Sony WORM platter";
    block_size = 4096;
    capacity_blocks = 1671168 (* 6.4 GB *);
    read_rate = 600.0 *. 1024.0;
    write_rate = 300.0 *. 1024.0;
    seek_const = 0.220;
    seek_per_block = 0.0;
  }

type changer_profile = { swap_time : float; hogs_bus : bool }

let hp6300_changer = { swap_time = 13.4; hogs_bus = true }
let metrum_changer = { swap_time = 42.0; hogs_bus = false }

exception Worm_overwrite of { vol : int; blk : int }

type drive = {
  id : int;
  res : Resource.t;
  track : string;                 (* trace timeline for this drive *)
  mutable assigned : int option;  (* logical claim, settled under [mutex] *)
  mutable physical : int option;  (* volume actually inside *)
  mutable pos : int;              (* head position on the loaded volume *)
  mutable last_use : float;
}

type t = {
  engine : Engine.t;
  label : string;
  prof : media_profile;
  changer : changer_profile;
  bus : Scsi_bus.t option;
  volumes : Blockstore.t array;
  drives : drive array;
  robot : Resource.t;
  mutex : Resource.t;
  mutable write_drive_reserved : bool;
  mutable n_swaps : int;
  mutable swap_total : float;
  mutable rbytes : int;
  mutable wbytes : int;
}

let create engine ?bus ?vol_capacity ~drives ~nvolumes ~media ~changer label =
  if drives <= 0 || nvolumes <= 0 then invalid_arg "Jukebox.create";
  let cap = Option.value vol_capacity ~default:media.capacity_blocks in
  {
    engine;
    label;
    prof = { media with capacity_blocks = cap };
    changer;
    bus;
    volumes =
      Array.init nvolumes (fun _ -> Blockstore.create ~block_size:media.block_size ~nblocks:cap);
    drives =
      Array.init drives (fun id ->
          let dname = Printf.sprintf "%s:drive%d" label id in
          {
            id;
            res = Resource.create engine ~wait_category:Ledger.Queue_wait dname;
            track = dname;
            assigned = None;
            physical = None;
            pos = 0;
            last_use = 0.0;
          });
    robot = Resource.create engine ~wait_category:Ledger.Robot_swap (label ^ ":robot");
    mutex = Resource.create engine ~wait_category:Ledger.Lock_wait (label ^ ":mutex");
    write_drive_reserved = false;
    n_swaps = 0;
    swap_total = 0.0;
    rbytes = 0;
    wbytes = 0;
  }

let name t = t.label
let engine t = t.engine
let media t = t.prof
let nvolumes t = Array.length t.volumes
let vol_capacity t = t.prof.capacity_blocks
let ndrives t = Array.length t.drives

let reserve_write_drive t flag =
  if Array.length t.drives > 1 then t.write_drive_reserved <- flag

(* A drive goes dead when a [Permanent] fault fires against its site
   (the trace-track name). Dead drives drop out of arbitration, so a
   service-layer retry of the failed transfer lands on a sibling drive —
   the failover path. A volume stuck in a dead drive is treated as
   unloaded; the robot can still pull it into a live drive. *)
let drive_alive d = not (Fault.site_dead d.track)

let loaded t = Array.map (fun d -> if drive_alive d then d.physical else None) t.drives
let volume_store t vol = t.volumes.(vol)

(* Park every volume back in the rack, instantly: an idle-dismount knob
   for scenarios that need the next access to pay the full swap (the
   robot's return trips happen off the data path, so no time passes and
   no swap is counted). Only valid while the jukebox is quiescent. *)
let dismount t =
  Array.iter
    (fun d ->
      if Resource.in_use d.res > 0 then
        invalid_arg "Jukebox.dismount: drive busy (in-flight request)";
      d.assigned <- None;
      d.physical <- None;
      d.pos <- 0)
    t.drives

let erase_volume t vol =
  if t.prof.kind = Worm then invalid_arg "Jukebox.erase_volume: WORM media cannot be erased";
  Blockstore.erase t.volumes.(vol)

(* Drive selection runs under [mutex]: join a drive already assigned to
   the volume; otherwise claim an empty drive, else evict the
   least-recently-used assigned drive. When a write drive is reserved,
   writes claim drive 0 and reads avoid it. *)
let choose_drive t vol ~for_write =
  let candidates =
    (if not t.write_drive_reserved then Array.to_list t.drives
     else if for_write then [ t.drives.(0) ]
     else List.tl (Array.to_list t.drives))
    |> List.filter drive_alive
  in
  if candidates = [] then
    raise
      (Fault.Injected
         {
           Fault.site = t.label;
           op = (if for_write then Fault.Write else Fault.Read);
           kind = Fault.Media_error;
           persistence = Fault.Permanent;
         });
  match
    List.find_opt
      (fun d -> drive_alive d && d.assigned = Some vol)
      (Array.to_list t.drives)
  with
  | Some d -> d
  | None -> (
      match List.find_opt (fun d -> d.assigned = None) candidates with
      | Some d ->
          d.assigned <- Some vol;
          d
      | None ->
          let victim =
            List.fold_left
              (fun best d -> if d.last_use < best.last_use then d else best)
              (List.hd candidates) (List.tl candidates)
          in
          victim.assigned <- Some vol;
          victim)

let swap t d vol =
  Fault.check ~site:(t.label ^ ":robot") Fault.Swap;
  Resource.with_resource t.robot (fun () ->
      Trace.span ~track:(t.label ^ ":robot") ~cat:"jukebox" "swap"
        ~args:
          [
            ("drive", string_of_int d.id);
            ("unload", match d.physical with Some v -> string_of_int v | None -> "-");
            ("load", string_of_int vol);
          ]
        (fun () ->
          let move () = Ledger.charged_delay Ledger.Robot_swap t.changer.swap_time in
          match t.bus with
          | Some bus when t.changer.hogs_bus -> Resource.with_resource (Scsi_bus.resource bus) move
          | _ -> move ());
      d.physical <- Some vol;
      d.pos <- 0;
      t.n_swaps <- t.n_swaps + 1;
      t.swap_total <- t.swap_total +. t.changer.swap_time)

let rec with_drive t vol ~for_write f =
  Resource.acquire t.mutex;
  let d =
    (* choose_drive raises when no live drive remains; the mutex must
       not leak with it or every later attempt parks forever *)
    match choose_drive t vol ~for_write with
    | d ->
        Resource.release t.mutex;
        d
    | exception e ->
        Resource.release t.mutex;
        raise e
  in
  Resource.acquire d.res;
  if not (drive_alive d) then begin
    (* died while we queued for it; retry through arbitration, which
       raises once no live drive is left *)
    Resource.release d.res;
    with_drive t vol ~for_write f
  end
  else begin
    (* holding the drive settles any claim race: a claimant whose
       [assigned] was stolen while it queued re-claims here instead of
       releasing and re-arbitrating — two processes sharing the last
       live drive would otherwise steal the claim back and forth
       forever without advancing simulated time *)
    d.assigned <- Some vol;
    let result =
      try
        if d.physical <> Some vol then swap t d vol;
        f d
      with e ->
        (* a drive that died mid-operation must not keep its volume
           claim, or the retry would re-join the dead drive's queue *)
        if not (drive_alive d) then d.assigned <- None;
        Resource.release d.res;
        raise e
    in
    d.last_use <- Engine.now t.engine;
    Resource.release d.res;
    result
  end

let chunk_blocks = 16 (* MAXPHYS-style 64 KB transfer grain *)

(* [on_chunk] fires after each chunk's bus transfer completes — the
   streaming-read delivery point. The chunk grain stays [chunk_blocks]
   unless a caller asks for a different streaming granularity. *)
let position_and_transfer ?(chunk = chunk_blocks) ?on_chunk t d ~blk ~count ~rate ~op =
  let rec go blk count =
    if count > 0 then begin
      let n = min count chunk in
      if d.pos <> blk then begin
        let dist = abs (blk - d.pos) in
        let position () =
          Ledger.charged_delay Ledger.Seek_rotate
            (t.prof.seek_const +. (t.prof.seek_per_block *. float_of_int dist))
        in
        (* guard keeps the disabled-tracing chunk loop free of span
           argument formatting *)
        if Trace.enabled () then
          Trace.span ~track:d.track ~cat:"jukebox" "position"
            ~args:[ ("seek_blocks", string_of_int dist) ]
            position
        else position ()
      end;
      let xfer = float_of_int (n * t.prof.block_size) /. rate in
      let transfer () =
        match t.bus with
        | Some bus -> Scsi_bus.transfer bus xfer
        | None -> Ledger.charged_delay Ledger.Transfer xfer
      in
      (if Trace.enabled () then
         Trace.span ~track:d.track ~cat:"jukebox" op
           ~args:[ ("blk", string_of_int blk); ("blocks", string_of_int n) ]
           transfer
       else transfer ());
      d.pos <- blk + n;
      Option.iter (fun f -> f ~blk ~n) on_chunk;
      go (blk + n) (count - n)
    end
  in
  go blk count

let read_into t ~vol ~blk ~count ~dst ~dst_off =
  if vol < 0 || vol >= nvolumes t then invalid_arg "Jukebox.read_into: bad volume";
  with_drive t vol ~for_write:false (fun d ->
      Fault.check ~site:d.track Fault.Read;
      position_and_transfer t d ~blk ~count ~rate:t.prof.read_rate ~op:"read";
      t.rbytes <- t.rbytes + (count * t.prof.block_size);
      Blockstore.read_into t.volumes.(vol) ~blk ~count ~dst ~dst_off)

let read t ~vol ~blk ~count =
  let out = Bytes.create (count * t.prof.block_size) in
  read_into t ~vol ~blk ~count ~dst:out ~dst_off:0;
  out

(* Streaming read: the same drive/robot/bus model as [read_into], but
   each chunk's blocks are shared into the caller's store at their
   final offset and the callback fires the moment the chunk's bus
   transfer completes — it only learns where ([off], in blocks) and how
   much ([blocks]), so a demand fetch stages a whole cache line without
   copying a byte. The fault plan is consulted per chunk, so a
   media error can strike mid-transfer after a prefix was handed over.
   Timing is identical to [read_into] (which already moves data through
   the bus at [chunk_blocks] grain); only delivery and fault granularity
   change. *)
let read_stream_into t ~vol ~blk ~count ?(chunk = chunk_blocks) ~dst ~dst_blk f =
  if vol < 0 || vol >= nvolumes t then invalid_arg "Jukebox.read_stream_into: bad volume";
  if chunk <= 0 then invalid_arg "Jukebox.read_stream_into: bad chunk";
  if dst_blk < 0 || dst_blk + count > Blockstore.nblocks dst then
    invalid_arg "Jukebox.read_stream_into: range outside destination";
  let bs = t.prof.block_size in
  with_drive t vol ~for_write:false (fun d ->
      let deliver ~blk:cblk ~n =
        Fault.check ~site:d.track Fault.Read;
        t.rbytes <- t.rbytes + (n * bs);
        let off = cblk - blk in
        Blockstore.share ~src:t.volumes.(vol) ~src_blk:cblk ~dst ~dst_blk:(dst_blk + off) ~count:n;
        f ~off ~blocks:n
      in
      Fault.check ~site:d.track Fault.Read;
      position_and_transfer ~chunk ~on_chunk:deliver t d ~blk ~count
        ~rate:t.prof.read_rate ~op:"read")

let write t ~vol ~blk data =
  if vol < 0 || vol >= nvolumes t then invalid_arg "Jukebox.write: bad volume";
  let count = Bytes.length data / t.prof.block_size in
  if t.prof.kind = Worm then
    for i = blk to blk + count - 1 do
      if Blockstore.is_written t.volumes.(vol) i then raise (Worm_overwrite { vol; blk = i })
    done;
  with_drive t vol ~for_write:true (fun d ->
      (* consulted before the store mutates: a faulted write leaves no data *)
      Fault.check ~site:d.track Fault.Write;
      Blockstore.write t.volumes.(vol) ~blk data;
      position_and_transfer t d ~blk ~count ~rate:t.prof.write_rate ~op:"write";
      t.wbytes <- t.wbytes + Bytes.length data)

(* Streaming write: the same drive/robot/bus model as [write], but the
   data are blocks of another store ([src], a write-out's image), which
   each chunk shares onto the volume instead of copying;
   the store mutates and the fault plan is consulted per chunk — a drive or
   bus fault at chunk k leaves exactly the chunks before it written, and
   those are exactly the chunks [f] has reported (a chunk lands in the
   store only once its transfer completed). A retry that resumes after
   the reported prefix never rewrites a block, so it is safe on WORM
   too; the WORM pre-check covers the requested range.
   [await] runs before each chunk and may block holding the drive — the
   written-prefix watermark stall of a streaming write-out, which is how
   a real tape drive starves when the staging disk falls behind. *)
let write_stream_from t ~vol ~blk ~src ~src_blk ~count ?(chunk = chunk_blocks) ?await f =
  if vol < 0 || vol >= nvolumes t then invalid_arg "Jukebox.write_stream_from: bad volume";
  if chunk <= 0 then invalid_arg "Jukebox.write_stream_from: bad chunk";
  let bs = t.prof.block_size in
  let store = t.volumes.(vol) in
  if t.prof.kind = Worm then
    for i = blk to blk + count - 1 do
      if Blockstore.is_written store i then raise (Worm_overwrite { vol; blk = i })
    done;
  with_drive t vol ~for_write:true (fun d ->
      let rec go off remaining =
        if remaining > 0 then begin
          let n = min remaining chunk in
          (match await with Some a -> a ~off ~blocks:n | None -> ());
          (* the drive check and the bus transfer both run before the
             store mutates: a faulted chunk leaves no data, though the
             chunks before it stay written *)
          Fault.check ~site:d.track Fault.Write;
          position_and_transfer ~chunk t d ~blk:(blk + off) ~count:n ~rate:t.prof.write_rate
            ~op:"write";
          Blockstore.share ~src ~src_blk:(src_blk + off) ~dst:store ~dst_blk:(blk + off) ~count:n;
          t.wbytes <- t.wbytes + (n * bs);
          f ~off ~blocks:n;
          go (off + n) (remaining - n)
        end
      in
      go 0 count)

let swaps t = t.n_swaps
let swap_time_total t = t.swap_total
let bytes_read t = t.rbytes
let bytes_written t = t.wbytes
