type t = {
  nblocks : int;
  block_size : int;
  read : blk:int -> count:int -> Bytes.t;
  write : blk:int -> data:Bytes.t -> unit;
  read_into : blk:int -> count:int -> dst:Bytes.t -> dst_off:int -> unit;
  write_from : blk:int -> src:Bytes.t -> src_off:int -> count:int -> unit;
  share_from : blk:int -> src:Device.Blockstore.t -> src_blk:int -> count:int -> unit;
  share_into : blk:int -> count:int -> dst:Device.Blockstore.t -> dst_blk:int -> unit;
}

let of_disk d =
  {
    nblocks = Device.Disk.nblocks d;
    block_size = Device.Disk.block_size d;
    read = (fun ~blk ~count -> Device.Disk.read d ~blk ~count);
    write = (fun ~blk ~data -> Device.Disk.write d ~blk data);
    read_into = (fun ~blk ~count ~dst ~dst_off -> Device.Disk.read_into d ~blk ~count ~dst ~dst_off);
    write_from =
      (fun ~blk ~src ~src_off ~count -> Device.Disk.write_from d ~blk ~src ~src_off ~count);
    share_from =
      (fun ~blk ~src ~src_blk ~count -> Device.Disk.share_from d ~blk ~src ~src_blk ~count);
    share_into =
      (fun ~blk ~count ~dst ~dst_blk -> Device.Disk.share_into d ~blk ~count ~dst ~dst_blk);
  }

let of_concat c =
  {
    nblocks = Device.Concat.nblocks c;
    block_size = Device.Concat.block_size c;
    read = (fun ~blk ~count -> Device.Concat.read c ~blk ~count);
    write = (fun ~blk ~data -> Device.Concat.write c ~blk data);
    read_into =
      (fun ~blk ~count ~dst ~dst_off -> Device.Concat.read_into c ~blk ~count ~dst ~dst_off);
    write_from =
      (fun ~blk ~src ~src_off ~count -> Device.Concat.write_from c ~blk ~src ~src_off ~count);
    share_from =
      (fun ~blk ~src ~src_blk ~count -> Device.Concat.share_from c ~blk ~src ~src_blk ~count);
    share_into =
      (fun ~blk ~count ~dst ~dst_blk -> Device.Concat.share_into c ~blk ~count ~dst ~dst_blk);
  }

let of_store s =
  let bs = Device.Blockstore.block_size s in
  {
    nblocks = Device.Blockstore.nblocks s;
    block_size = bs;
    read =
      (fun ~blk ~count ->
        let out = Bytes.create (count * bs) in
        Device.Blockstore.read_into s ~blk ~count ~dst:out ~dst_off:0;
        out);
    write = (fun ~blk ~data -> Device.Blockstore.write s ~blk data);
    read_into =
      (fun ~blk ~count ~dst ~dst_off -> Device.Blockstore.read_into s ~blk ~count ~dst ~dst_off);
    write_from =
      (fun ~blk ~src ~src_off ~count -> Device.Blockstore.write_from s ~blk ~src ~src_off ~count);
    share_from =
      (fun ~blk ~src ~src_blk ~count ->
        Device.Blockstore.share ~src ~src_blk ~dst:s ~dst_blk:blk ~count);
    share_into =
      (fun ~blk ~count ~dst ~dst_blk ->
        Device.Blockstore.share ~src:s ~src_blk:blk ~dst ~dst_blk ~count);
  }
