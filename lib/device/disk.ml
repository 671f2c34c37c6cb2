open Sim

type profile = {
  model : string;
  block_size : int;
  nblocks : int;
  read_rate : float;
  write_rate : float;
  seek_min : float;
  seek_max : float;
  rot_latency : float;
  op_overhead : float;
}

(* Rates are calibrated so the raw-device bench (paper Table 5) lands on
   the reported numbers; seeks use a concave distance curve (exponent
   0.4) which matches short-span random access on these drives better
   than the square root. *)
let rz57 =
  {
    model = "DEC RZ57";
    block_size = 4096;
    nblocks = 262144 (* 1.0 GB *);
    read_rate = 1417.0 *. 1024.0;
    write_rate = 993.0 *. 1024.0;
    seek_min = 0.004;
    seek_max = 0.033;
    rot_latency = 0.0083;
    op_overhead = 0.0010;
  }

let rz58 =
  {
    model = "DEC RZ58";
    block_size = 4096;
    nblocks = 349525 (* 1.33 GB *);
    read_rate = 1491.0 *. 1024.0;
    write_rate = 1261.0 *. 1024.0;
    seek_min = 0.0035;
    seek_max = 0.030;
    rot_latency = 0.0076;
    op_overhead = 0.0010;
  }

let hp7958a =
  {
    model = "HP 7958A";
    block_size = 4096;
    nblocks = 77824 (* 304 MB *);
    read_rate = 560.0 *. 1024.0;
    write_rate = 480.0 *. 1024.0;
    seek_min = 0.006;
    seek_max = 0.055;
    rot_latency = 0.0112;
    op_overhead = 0.0030 (* HP-IB command turnaround is slow *);
  }

(* all-float, so stored flat: adding a seek boxes nothing *)
type seek_acc = { mutable seek_total : float }

type t = {
  engine : Engine.t;
  label : string;
  site : string; (* "disk:<label>", hoisted off the per-op path *)
  prof : profile;
  store : Blockstore.t;
  res : Resource.t;
  bus : Scsi_bus.t option;
  mutable arm : int;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable rbytes : int;
  mutable wbytes : int;
  acc : seek_acc;
}

(* 4.4BSD physio splits raw transfers at MAXPHYS (64 KB); each chunk is a
   separate disk request, so competing streams interleave at this grain —
   which is precisely what produces the paper's disk-arm contention. *)
let max_transfer_blocks = 16

let seek_exponent = 0.4

let create engine ?bus ?nblocks prof ~name =
  let nblocks = Option.value nblocks ~default:prof.nblocks in
  {
    engine;
    label = name;
    site = "disk:" ^ name;
    prof;
    store = Blockstore.create ~block_size:prof.block_size ~nblocks;
    res = Resource.create engine ~wait_category:Ledger.Queue_wait ("disk:" ^ name);
    bus;
    arm = 0;
    n_reads = 0;
    n_writes = 0;
    rbytes = 0;
    wbytes = 0;
    acc = { seek_total = 0.0 };
  }

let name t = t.label
let profile t = t.prof
let nblocks t = Blockstore.nblocks t.store
let block_size t = t.prof.block_size
let store t = t.store

let seek_duration t dist =
  if dist = 0 then 0.0
  else
    let frac = float_of_int dist /. float_of_int (nblocks t) in
    t.prof.seek_min +. ((t.prof.seek_max -. t.prof.seek_min) *. Float.pow frac seek_exponent)

(* One chunk holds the arm: position (overhead + seek + rotation), then
   transfer over the bus if there is one. This is the hottest device
   loop in the tree, so the untraced path allocates nothing of its own
   beyond the two [Engine.delay] payloads: the [Trace.span] and ledger
   thunks, with their argument lists and int formatting, are built only
   when a tracer or a ledger registry is installed, and the seek total
   is an unboxed float. *)
let move t xfer =
  match t.bus with
  | Some bus -> Scsi_bus.transfer bus xfer
  | None -> Ledger.charged_delay Ledger.Transfer xfer

let chunk_body t ~blk ~count ~rate ~op =
  let dist = abs (blk - t.arm) in
  let seek = seek_duration t dist in
  let rot = if dist = 0 then 0.0 else t.prof.rot_latency in
  t.acc.seek_total <- t.acc.seek_total +. seek;
  let d = t.prof.op_overhead +. seek +. rot in
  if Trace.enabled () then
    Trace.span ~track:t.site ~cat:"disk" "position"
      ~args:[ ("seek_blocks", string_of_int dist) ]
      (fun () -> Ledger.charged_delay Ledger.Seek_rotate d)
  else Ledger.charged_delay Ledger.Seek_rotate d;
  let xfer = float_of_int (count * t.prof.block_size) /. rate in
  if Trace.enabled () then
    Trace.span ~track:t.site ~cat:"disk" op
      ~args:[ ("blk", string_of_int blk); ("blocks", string_of_int count) ]
      (fun () -> move t xfer)
  else move t xfer;
  t.arm <- blk + count

(* [Resource.acquire]/[release] around the chunk rather than
   [with_resource] and a closure *)
let chunk_io t ~blk ~count ~rate ~op =
  Resource.acquire t.res;
  match chunk_body t ~blk ~count ~rate ~op with
  | () -> Resource.release t.res
  | exception e ->
      Resource.release t.res;
      raise e

let rec split_io t ~blk ~count ~rate ~op =
  if count > 0 then begin
    let n = min count max_transfer_blocks in
    chunk_io t ~blk ~count:n ~rate ~op;
    split_io t ~blk:(blk + n) ~count:(count - n) ~rate ~op
  end

(* the bytes of a read move after its delay *)
let timed_read t ~blk ~count =
  Fault.check ~site:t.site Fault.Read;
  split_io t ~blk ~count ~rate:t.prof.read_rate ~op:"read";
  t.n_reads <- t.n_reads + 1;
  t.rbytes <- t.rbytes + (count * t.prof.block_size)

let read_into t ~blk ~count ~dst ~dst_off =
  timed_read t ~blk ~count;
  Blockstore.read_into t.store ~blk ~count ~dst ~dst_off

let share_into t ~blk ~count ~dst ~dst_blk =
  timed_read t ~blk ~count;
  Blockstore.share ~src:t.store ~src_blk:blk ~dst ~dst_blk ~count

let read t ~blk ~count =
  let out = Bytes.create (count * t.prof.block_size) in
  read_into t ~blk ~count ~dst:out ~dst_off:0;
  out

(* after the store took the bytes; the fault check comes first, so a
   faulted write leaves no data *)
let timed_write t ~blk ~count =
  split_io t ~blk ~count ~rate:t.prof.write_rate ~op:"write";
  t.n_writes <- t.n_writes + 1;
  t.wbytes <- t.wbytes + (count * t.prof.block_size)

let write_from t ~blk ~src ~src_off ~count =
  Fault.check ~site:t.site Fault.Write;
  Blockstore.write_from t.store ~blk ~src ~src_off ~count;
  timed_write t ~blk ~count

let share_from t ~blk ~src ~src_blk ~count =
  Fault.check ~site:t.site Fault.Write;
  Blockstore.share ~src ~src_blk ~dst:t.store ~dst_blk:blk ~count;
  timed_write t ~blk ~count

let write t ~blk data =
  let len = Bytes.length data in
  if len = 0 || len mod t.prof.block_size <> 0 then
    invalid_arg "Disk.write: length must be a positive multiple of block size";
  write_from t ~blk ~src:data ~src_off:0 ~count:(len / t.prof.block_size)

let reads t = t.n_reads
let writes t = t.n_writes
let bytes_read t = t.rbytes
let bytes_written t = t.wbytes
let seek_time t = t.acc.seek_total
let busy_time t = Resource.busy_time t.res
