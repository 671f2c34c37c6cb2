(* The disk timing wrapper: the same [Lfs.Dev.t] record with every
   operation inside a [device.disk] span. Only the traced run passes it
   to [Hl.mkfs]; the untraced run gets the plain [Dev.of_disk] value so
   end-to-end numbers measure unwrapped code. *)

let wrap (d : Lfs.Dev.t) : Lfs.Dev.t =
  let span f = Span.with_ ~layer:"device" "disk" f in
  {
    d with
    read = (fun ~blk ~count -> span (fun () -> d.read ~blk ~count));
    write = (fun ~blk ~data -> span (fun () -> d.write ~blk ~data));
    read_into =
      (fun ~blk ~count ~dst ~dst_off -> span (fun () -> d.read_into ~blk ~count ~dst ~dst_off));
    write_from =
      (fun ~blk ~src ~src_off ~count -> span (fun () -> d.write_from ~blk ~src ~src_off ~count));
  }
