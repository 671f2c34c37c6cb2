open Device

let check = Alcotest.check

let in_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> r | None -> Alcotest.fail "sim process did not finish"

(* --- Blockstore --- *)

(* [count] blocks of a store in a fresh buffer *)
let store_read s ~blk ~count =
  let out = Bytes.create (count * Blockstore.block_size s) in
  Blockstore.read_into s ~blk ~count ~dst:out ~dst_off:0;
  out

let test_store_zero_fill () =
  let s = Blockstore.create ~block_size:16 ~nblocks:8 in
  check Alcotest.bool "reads zeros" true (Util.Bytesx.is_zero (store_read s ~blk:3 ~count:2))

let test_store_roundtrip () =
  let s = Blockstore.create ~block_size:16 ~nblocks:8 in
  let data = Bytes.of_string (String.init 32 (fun i -> Char.chr (i + 65))) in
  Blockstore.write s ~blk:2 data;
  check Alcotest.bytes "roundtrip" data (store_read s ~blk:2 ~count:2);
  check Alcotest.bool "marked written" true (Blockstore.is_written s 3);
  check Alcotest.bool "others untouched" false (Blockstore.is_written s 4);
  check Alcotest.int "count" 2 (Blockstore.written_blocks s)

let test_store_bounds () =
  let s = Blockstore.create ~block_size:16 ~nblocks:8 in
  let boom f = try f (); false with Invalid_argument _ -> true in
  check Alcotest.bool "read past end" true (boom (fun () -> ignore (store_read s ~blk:7 ~count:2)));
  check Alcotest.bool "negative" true (boom (fun () -> ignore (store_read s ~blk:(-1) ~count:1)));
  check Alcotest.bool "bad write len" true (boom (fun () -> Blockstore.write s ~blk:0 (Bytes.create 10)))

let test_store_erase_block () =
  let s = Blockstore.create ~block_size:16 ~nblocks:8 in
  Blockstore.write s ~blk:1 (Bytes.make 16 'z');
  Blockstore.erase_block s 1;
  check Alcotest.bool "erased" false (Blockstore.is_written s 1);
  check Alcotest.bool "zeros again" true (Util.Bytesx.is_zero (store_read s ~blk:1 ~count:1))

(* A snapshot shares every page: [copy] takes none, and afterwards each
   single-block write, to either side, takes at most one private page —
   the memory a snapshot costs is the pages written since. *)
let test_store_snapshot_cost () =
  let s = Blockstore.create ~block_size:64 ~nblocks:1000 in
  Blockstore.write s ~blk:0 (Bytes.make (1000 * 64) 'o');
  let before = Blockstore.pages_taken s in
  let c = Blockstore.copy s in
  check Alcotest.int "copy takes no page" 0 (Blockstore.pages_taken c);
  check Alcotest.int "original takes no page" before (Blockstore.pages_taken s);
  let rng = Util.Rng.create 5 in
  List.iter
    (fun k ->
      for i = 1 to k do
        let side = if Util.Rng.int rng 2 = 0 then s else c in
        Blockstore.write side ~blk:(Util.Rng.int rng 1000) (Bytes.make 64 (Char.chr (48 + (i mod 10))))
      done;
      let taken = Blockstore.pages_taken s - before + Blockstore.pages_taken c in
      check Alcotest.bool
        (Printf.sprintf "%d pages taken for %d writes since the copy" taken k)
        true (taken <= k);
      (* a write into a page already private to its side takes none *)
      let again = Blockstore.pages_taken c in
      Blockstore.write c ~blk:0 (Bytes.make 64 'x');
      Blockstore.write c ~blk:1 (Bytes.make 64 'y');
      check Alcotest.bool "rewrites of a private page take at most one" true
        (Blockstore.pages_taken c - again <= 1))
    [ 1; 7; 40 ];
  check Alcotest.bool "copy still reads its own bytes" true
    (Bytes.equal (store_read c ~blk:1 ~count:1) (Bytes.make 64 'y'))

(* The zero page: a whole page of written zeros (32 blocks) holds one
   page shared by every store, and takes none of its own. *)
let zbs = 64
let zpage = 32 * zbs
let all_written s ~blk ~count = List.for_all (Blockstore.is_written s) (List.init count (( + ) blk))
let reads_zeros s ~blk ~count = Util.Bytesx.is_zero (store_read s ~blk ~count)

let write_zero_page s ~blk =
  let src = Bytes.make (zpage + 7) '\000' in
  Blockstore.write_from s ~blk ~src ~src_off:7 ~count:32

let test_store_zero_page_write () =
  let s = Blockstore.create ~block_size:zbs ~nblocks:128 in
  write_zero_page s ~blk:32;
  check Alcotest.int "no page taken" 0 (Blockstore.pages_taken s);
  check Alcotest.bool "all 32 slots written" true (all_written s ~blk:32 ~count:32);
  check Alcotest.int "written count" 32 (Blockstore.written_blocks s);
  check Alcotest.bool "neighbours untouched" false
    (Blockstore.is_written s 31 || Blockstore.is_written s 64);
  check Alcotest.bool "reads zeros" true (reads_zeros s ~blk:32 ~count:32);
  (* over a page of data: the page goes, the blocks read zeros *)
  Blockstore.write s ~blk:64 (Bytes.make zpage 'd');
  let taken = Blockstore.pages_taken s in
  Blockstore.write s ~blk:64 (Bytes.make zpage '\000');
  check Alcotest.int "zeros over data take no page" taken (Blockstore.pages_taken s);
  check Alcotest.bool "and read zeros" true (reads_zeros s ~blk:64 ~count:32);
  (* a partial page of zeros, or a whole page with one nonzero byte at
     its end, is data *)
  Blockstore.write s ~blk:0 (Bytes.make (31 * zbs) '\000');
  check Alcotest.int "31 zero blocks take a page" (taken + 1) (Blockstore.pages_taken s);
  let last = Bytes.make zpage '\000' in
  Bytes.set last (zpage - 1) 'x';
  Blockstore.write s ~blk:96 last;
  check Alcotest.int "a nonzero last byte takes a page" (taken + 2) (Blockstore.pages_taken s);
  check Alcotest.bytes "and keeps it" last (store_read s ~blk:96 ~count:32)

let test_store_zero_page_cow () =
  let s = Blockstore.create ~block_size:zbs ~nblocks:64 in
  write_zero_page s ~blk:0;
  let v = Blockstore.create ~block_size:zbs ~nblocks:64 in
  Blockstore.share ~src:s ~src_blk:0 ~dst:v ~dst_blk:32 ~count:32;
  check Alcotest.int "share takes no page" 0 (Blockstore.pages_taken v);
  check Alcotest.int "and copies no block" 0 (Blockstore.blocks_copied v);
  let snap = Blockstore.copy s in
  let copied = Blockstore.blocks_copied s in
  Blockstore.write s ~blk:5 (Bytes.make zbs 'd');
  check Alcotest.int "one-block write takes a private page" 1 (Blockstore.pages_taken s);
  check Alcotest.int "carrying the other 31 slots" (copied + 32) (Blockstore.blocks_copied s);
  check Alcotest.bytes "writer reads its block" (Bytes.make zbs 'd') (store_read s ~blk:5 ~count:1);
  check Alcotest.bool "and zeros around it" true
    (reads_zeros s ~blk:0 ~count:5 && reads_zeros s ~blk:6 ~count:26);
  check Alcotest.bool "writer keeps every slot written" true (all_written s ~blk:0 ~count:32);
  List.iter
    (fun (what, holder, blk) ->
      check Alcotest.bool (what ^ " still reads zeros") true (reads_zeros holder ~blk ~count:32);
      check Alcotest.bool (what ^ " still written") true (all_written holder ~blk ~count:32))
    [ ("shared-into store", v, 32); ("snapshot", snap, 0) ];
  (* each other holder takes its own page on its first write *)
  Blockstore.write v ~blk:63 (Bytes.make zbs 'v');
  Blockstore.write snap ~blk:0 (Bytes.make zbs 's');
  check Alcotest.int "the volume took one" 1 (Blockstore.pages_taken v);
  check Alcotest.int "the snapshot took one" 1 (Blockstore.pages_taken snap);
  check Alcotest.bool "each sees only its own write" true
    (reads_zeros v ~blk:32 ~count:31
    && reads_zeros snap ~blk:1 ~count:31
    && Bytes.equal (store_read s ~blk:5 ~count:1) (Bytes.make zbs 'd'))

(* Letting go of zero-page slots never puts the zero page on a free
   list: every later data write gets a page of its own, and a store
   that still holds the zero page keeps reading zeros. *)
let test_store_zero_page_never_private () =
  let keep = Blockstore.create ~block_size:zbs ~nblocks:32 in
  write_zero_page keep ~blk:0;
  let a = Blockstore.create ~block_size:zbs ~nblocks:128 in
  let b = Blockstore.create ~block_size:zbs ~nblocks:128 in
  let img = Blockstore.image ~block_size:zbs ~nblocks:128 in
  List.iter (fun blk -> write_zero_page a ~blk) [ 0; 32; 64 ];
  Blockstore.share ~src:a ~src_blk:0 ~dst:b ~dst_blk:0 ~count:96;
  Blockstore.share ~src:a ~src_blk:0 ~dst:img ~dst_blk:0 ~count:96;
  let snap = Blockstore.copy a in
  for blk = 0 to 31 do
    Blockstore.erase_block a blk
  done;
  Blockstore.erase_block a 40;
  Blockstore.erase b;
  Blockstore.erase img;
  Blockstore.erase snap;
  check Alcotest.bool "a's other zero-page slots stay" true
    (Blockstore.written_blocks a = 63
    && (not (Blockstore.is_written a 40))
    && all_written a ~blk:41 ~count:55
    && reads_zeros a ~blk:32 ~count:64);
  let fill i = Bytes.make zpage (Char.chr (65 + i)) in
  List.iteri
    (fun i (s, blk) ->
      Blockstore.write s ~blk (fill i);
      check Alcotest.bytes (Printf.sprintf "data write %d reads back" i) (fill i)
        (store_read s ~blk ~count:32);
      check Alcotest.bool (Printf.sprintf "zero holder after write %d" i) true
        (reads_zeros keep ~blk:0 ~count:32))
    [ (a, 0); (a, 96); (b, 0); (b, 32); (img, 64); (snap, 0); (snap, 96); (a, 32) ];
  check Alcotest.int "a written throughout" 128 (Blockstore.written_blocks a)

let test_store_zero_page_worm () =
  in_sim (fun e ->
      let jb =
        Jukebox.create e ~drives:1 ~nvolumes:1 ~vol_capacity:256 ~media:Jukebox.sony_worm
          ~changer:Jukebox.hp6300_changer "worm"
      in
      Jukebox.write jb ~vol:0 ~blk:32 (Bytes.make (32 * 4096) '\000');
      check Alcotest.int "volume holds the zero page" 0
        (Blockstore.pages_taken (Jukebox.volume_store jb 0));
      check Alcotest.bool "overwrite raises" true
        (try
           Jukebox.write jb ~vol:0 ~blk:37 (Bytes.make 4096 'w');
           false
         with Jukebox.Worm_overwrite { vol = 0; blk = 37 } -> true))

(* Model test: random operations run against the store and against a
   reference that keeps one [Bytes] per written block (the store's
   former representation). [Copy] forks a new store/model pair; later
   operations pick a pair by index, so writes to a copy and to its
   original are both exercised and each must stay invisible to the
   other. [Share] moves a range from one pair to another (or within
   one), page-aligned about half the time, so shared pages then take
   writes, erases and further shares on either side. [Write_zero]
   writes zeros, mostly over whole pages, which then hold the zero page;
   [Share_pages] shares whole pages between page-aligned ranges, so
   zero pages pass between stores and take writes, erases and copies
   there. The 8-byte blocks
   and 100-block device (three full 32-block pages plus a short one)
   keep ranges straddling page boundaries and partly written pages
   common. *)
type store_op =
  | Op_write of int * int * int * int (* store, blk, count, seed *)
  | Op_write_from of int * int * int * int * int (* ... + src_off *)
  | Op_read_into of int * int * int * int (* store, blk, count, dst_off *)
  | Op_erase_block of int * int
  | Op_erase of int
  | Op_copy of int
  | Op_share of int * int * int * int * int (* src store, src blk, dst store, dst blk, count *)
  | Op_write_zero of int * int * int (* store, blk, count *)
  | Op_share_pages of int * int * int * int * int (* src store, src page, dst store, dst page, pages *)

let model_bs = 8
let model_nblocks = 100

let pp_store_op = function
  | Op_write (w, b, c, s) -> Printf.sprintf "write(s%d, %d, %d, #%d)" w b c s
  | Op_write_from (w, b, c, s, o) -> Printf.sprintf "write_from(s%d, %d, %d, #%d, +%d)" w b c s o
  | Op_read_into (w, b, c, o) -> Printf.sprintf "read_into(s%d, %d, %d, +%d)" w b c o
  | Op_erase_block (w, b) -> Printf.sprintf "erase_block(s%d, %d)" w b
  | Op_erase w -> Printf.sprintf "erase(s%d)" w
  | Op_copy w -> Printf.sprintf "copy(s%d)" w
  | Op_share (sw, sb, dw, db, c) -> Printf.sprintf "share(s%d, %d -> s%d, %d, %d)" sw sb dw db c
  | Op_write_zero (w, b, c) -> Printf.sprintf "write_zero(s%d, %d, %d)" w b c
  | Op_share_pages (sw, sp, dw, dp, n) ->
      Printf.sprintf "share_pages(s%d, p%d -> s%d, p%d, %d)" sw sp dw dp n

let gen_store_op =
  let open QCheck.Gen in
  let range =
    int_bound (model_nblocks - 1) >>= fun blk ->
    int_range 1 (min 70 (model_nblocks - blk)) >|= fun count -> (blk, count)
  in
  frequency
    [
      (4, map3 (fun w (b, c) s -> Op_write (w, b, c, s)) small_nat range small_nat);
      ( 4,
        map3
          (fun w (b, c) (s, o) -> Op_write_from (w, b, c, s, o))
          small_nat range (pair small_nat (int_bound 11)) );
      (4, map3 (fun w (b, c) o -> Op_read_into (w, b, c, o)) small_nat range (int_bound 11));
      (3, map2 (fun w b -> Op_erase_block (w, b)) small_nat (int_bound (model_nblocks - 1)));
      (1, map (fun w -> Op_erase w) small_nat);
      (1, map (fun w -> Op_copy w) small_nat);
      ( 4,
        (* aligned: the destination sits at the source's page offset *)
        pair small_nat small_nat >>= fun (sw, dw) ->
        int_bound (model_nblocks - 1) >>= fun sb ->
        oneof
          [
            int_bound (model_nblocks - 1);
            (int_bound 3 >|= fun k ->
             let db = (sb mod 32) + (32 * k) in
             if db < model_nblocks then db else sb mod 32);
          ]
        >>= fun db ->
        int_range 1 (min 70 (model_nblocks - max sb db)) >|= fun c -> Op_share (sw, sb, dw, db, c) );
      ( 3,
        (* whole pages (the device's three full ones) or any range *)
        small_nat >>= fun w ->
        oneof
          [
            (int_bound 2 >>= fun p ->
             int_range 1 (3 - p) >|= fun n -> (32 * p, 32 * n));
            range;
          ]
        >|= fun (b, c) -> Op_write_zero (w, b, c) );
      ( 2,
        pair small_nat small_nat >>= fun (sw, dw) ->
        pair (int_bound 2) (int_bound 2) >>= fun (sp, dp) ->
        int_range 1 (3 - max sp dp) >|= fun n -> Op_share_pages (sw, sp, dw, dp, n) );
    ]

let block_fill seed blk = Bytes.init model_bs (fun i -> Char.chr ((seed + (blk * 31) + (i * 7) + 1) land 0xff))

let model_read model blk count =
  let out = Bytes.make (count * model_bs) '\000' in
  for i = 0 to count - 1 do
    match Hashtbl.find_opt model (blk + i) with
    | Some b -> Bytes.blit b 0 out (i * model_bs) model_bs
    | None -> ()
  done;
  out

let prop_store_matches_model =
  QCheck.Test.make ~name:"blockstore agrees with a per-block model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_store_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_store_op))
    (fun ops ->
      let worlds =
        ref [| (Blockstore.create ~block_size:model_bs ~nblocks:model_nblocks, Hashtbl.create 16) |]
      in
      let pick w = !worlds.(w mod Array.length !worlds) in
      let share sw src_blk dw dst_blk count =
        let src, smodel = pick sw and dst, dmodel = pick dw in
        match Blockstore.share ~src ~src_blk ~dst ~dst_blk ~count with
        | () ->
            (* a share writes what a read of the source returns *)
            let blocks =
              List.init count (fun i -> Bytes.sub (model_read smodel (src_blk + i) 1) 0 model_bs)
            in
            List.iteri (fun i b -> Hashtbl.replace dmodel (dst_blk + i) b) blocks;
            true
        | exception Invalid_argument _ ->
            (* only overlapping ranges of one store are refused *)
            src == dst && src_blk < dst_blk + count && dst_blk < src_blk + count
      in
      let agrees (store, model) =
        Blockstore.written_blocks store = Hashtbl.length model
        && List.for_all
             (fun blk -> Blockstore.is_written store blk = Hashtbl.mem model blk)
             (List.init model_nblocks Fun.id)
        && Bytes.equal
             (store_read store ~blk:0 ~count:model_nblocks)
             (model_read model 0 model_nblocks)
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Op_write (w, blk, count, seed) ->
                let store, model = pick w in
                let data = Bytes.concat Bytes.empty (List.init count (fun i -> block_fill seed (blk + i))) in
                Blockstore.write store ~blk data;
                for i = 0 to count - 1 do
                  Hashtbl.replace model (blk + i) (block_fill seed (blk + i))
                done;
                true
            | Op_write_from (w, blk, count, seed, src_off) ->
                let store, model = pick w in
                let src = Bytes.make (src_off + (count * model_bs) + 5) '\x5a' in
                for i = 0 to count - 1 do
                  Bytes.blit (block_fill seed (blk + i)) 0 src (src_off + (i * model_bs)) model_bs
                done;
                Blockstore.write_from store ~blk ~src ~src_off ~count;
                for i = 0 to count - 1 do
                  Hashtbl.replace model (blk + i) (block_fill seed (blk + i))
                done;
                true
            | Op_read_into (w, blk, count, dst_off) ->
                let store, model = pick w in
                let dst = Bytes.make (dst_off + (count * model_bs) + 3) '\xa5' in
                Blockstore.read_into store ~blk ~count ~dst ~dst_off;
                Bytes.equal (Bytes.sub dst dst_off (count * model_bs)) (model_read model blk count)
                && Bytes.for_all (( = ) '\xa5') (Bytes.sub dst 0 dst_off)
                && Bytes.for_all (( = ) '\xa5') (Bytes.sub dst (dst_off + (count * model_bs)) 3)
            | Op_erase_block (w, blk) ->
                let store, model = pick w in
                Blockstore.erase_block store blk;
                Hashtbl.remove model blk;
                true
            | Op_erase w ->
                let store, model = pick w in
                Blockstore.erase store;
                Hashtbl.reset model;
                true
            | Op_copy w ->
                let store, model = pick w in
                worlds := Array.append !worlds [| (Blockstore.copy store, Hashtbl.copy model) |];
                true
            | Op_share (sw, src_blk, dw, dst_blk, count) -> share sw src_blk dw dst_blk count
            | Op_write_zero (w, blk, count) ->
                let store, model = pick w in
                Blockstore.write store ~blk (Bytes.make (count * model_bs) '\000');
                for i = 0 to count - 1 do
                  Hashtbl.replace model (blk + i) (Bytes.make model_bs '\000')
                done;
                true
            | Op_share_pages (sw, sp, dw, dp, n) -> share sw (32 * sp) dw (32 * dp) (32 * n)
          in
          step_ok && Array.for_all agrees !worlds)
        ops)

(* --- Disk timing --- *)

let test_disk_sequential_rate () =
  let elapsed =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let t0 = Sim.Engine.now e in
        (* 10 x 1MB sequential reads *)
        for i = 0 to 9 do
          ignore (Disk.read d ~blk:(i * 256) ~count:256)
        done;
        Sim.Engine.now e -. t0)
  in
  let rate = (10.0 *. 1024.0 *. 1024.0) /. elapsed /. 1024.0 in
  (* paper Table 5: raw RZ57 read 1417 KB/s; allow a few percent model overhead *)
  check Alcotest.bool
    (Printf.sprintf "sequential read rate ~1417 KB/s (got %.0f)" rate)
    true
    (rate > 1300.0 && rate <= 1417.0)

let test_disk_write_slower_than_read () =
  let time_of op =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let t0 = Sim.Engine.now e in
        op d;
        Sim.Engine.now e -. t0)
  in
  let read_t = time_of (fun d -> ignore (Disk.read d ~blk:0 ~count:256)) in
  let write_t = time_of (fun d -> Disk.write d ~blk:0 (Bytes.create (256 * 4096))) in
  check Alcotest.bool "write slower" true (write_t > read_t)

let test_disk_random_slower_than_sequential () =
  let seq =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let t0 = Sim.Engine.now e in
        for i = 0 to 63 do
          ignore (Disk.read d ~blk:i ~count:1)
        done;
        Sim.Engine.now e -. t0)
  in
  let random =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let rng = Util.Rng.create 3 in
        let t0 = Sim.Engine.now e in
        for _ = 0 to 63 do
          ignore (Disk.read d ~blk:(Util.Rng.int rng (Disk.nblocks d)) ~count:1)
        done;
        Sim.Engine.now e -. t0)
  in
  check Alcotest.bool "random >3x slower" true (random > 3.0 *. seq)

let test_disk_data_integrity () =
  in_sim (fun e ->
      let d = Disk.create e Disk.rz58 ~name:"d0" in
      let rng = Util.Rng.create 11 in
      let blobs =
        List.init 20 (fun i ->
            let blk = Util.Rng.int rng (Disk.nblocks d - 4) in
            let data = Bytes.init (4096 * 2) (fun j -> Char.chr ((i + j) land 0xff)) in
            (blk, data))
      in
      (* later writes may overlap earlier ones; replay to compute expectation *)
      List.iter (fun (blk, data) -> Disk.write d ~blk data) blobs;
      let expect = Blockstore.create ~block_size:4096 ~nblocks:(Disk.nblocks d) in
      List.iter (fun (blk, data) -> Blockstore.write expect ~blk data) blobs;
      List.iter
        (fun (blk, _) ->
          check Alcotest.bytes "disk data" (store_read expect ~blk ~count:2)
            (Disk.read d ~blk ~count:2))
        blobs)

let test_disk_contention_interleaves () =
  (* Two competing streams on one disk must be slower than back-to-back,
     because each steals the arm at the 64 KB chunk grain. *)
  let solo =
    in_sim (fun e ->
        let d = Disk.create e Disk.rz57 ~name:"d0" in
        let t0 = Sim.Engine.now e in
        ignore (Disk.read d ~blk:0 ~count:2560);
        ignore (Disk.read d ~blk:100_000 ~count:2560);
        Sim.Engine.now e -. t0)
  in
  let contended =
    let e = Sim.Engine.create () in
    let d = Disk.create e Disk.rz57 ~name:"d0" in
    Sim.Engine.spawn e (fun () -> ignore (Disk.read d ~blk:0 ~count:2560));
    Sim.Engine.spawn e (fun () -> ignore (Disk.read d ~blk:100_000 ~count:2560));
    Sim.Engine.run e;
    Sim.Engine.now e
  in
  check Alcotest.bool
    (Printf.sprintf "contention hurts (solo %.2f contended %.2f)" solo contended)
    true
    (contended > 1.5 *. solo)

let test_disk_stats () =
  in_sim (fun e ->
      let d = Disk.create e Disk.rz57 ~name:"d0" in
      ignore (Disk.read d ~blk:0 ~count:4);
      Disk.write d ~blk:8 (Bytes.create 4096);
      check Alcotest.int "reads" 1 (Disk.reads d);
      check Alcotest.int "writes" 1 (Disk.writes d);
      check Alcotest.int "bytes read" (4 * 4096) (Disk.bytes_read d);
      check Alcotest.int "bytes written" 4096 (Disk.bytes_written d))

(* --- Request-path allocation --- *)

(* One untraced single-block request — a read, a write, or a fetch
   landing's shared write — may allocate only what the engine needs to
   block (two [Engine.delay] payloads, about 22 words); the rest of the
   path carries no closures or boxed floats. The bound
   leaves a few words of slack over the measured ~28, and sits far
   below the 85 a closure-built request allocates. *)
let request_words_bound = 32.0

let words_per_request io =
  Sim.Trace.stop ();
  Sim.Ledger.uninstall ();
  Sim.Fault.clear ();
  let e = Sim.Engine.create () in
  let bus = Scsi_bus.create e "alloc" in
  let d = Disk.create e ~bus ~nblocks:4096 Disk.rz57 ~name:"alloc" in
  let buf = Bytes.make 4096 'a' in
  let n = 2000 in
  let words = ref nan in
  Sim.Engine.spawn e (fun () ->
      (* first touches create the store's pages *)
      for i = 0 to 99 do
        Disk.write_from d ~blk:(i * 37 mod 4096) ~src:buf ~src_off:0 ~count:1
      done;
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        io d ~blk:(i * 37 mod 3700) buf
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n);
  Sim.Engine.run e;
  !words

let test_request_alloc () =
  let read d ~blk buf = Disk.read_into d ~blk ~count:1 ~dst:buf ~dst_off:0 in
  let write d ~blk buf = Disk.write_from d ~blk ~src:buf ~src_off:0 ~count:1 in
  (* one written page to share from, at each block's own page offset:
     untouched disk pages take it, pages holding other blocks copy *)
  let src = Blockstore.create ~block_size:4096 ~nblocks:32 in
  Blockstore.write src ~blk:0 (Bytes.make (32 * 4096) 's');
  let share d ~blk _ = Disk.share_from d ~blk ~src ~src_blk:(blk mod 32) ~count:1 in
  (* and a page-sized image to share into, at each block's page offset *)
  let dst = Blockstore.create ~block_size:4096 ~nblocks:32 in
  let share_into d ~blk _ = Disk.share_into d ~blk ~count:1 ~dst ~dst_blk:(blk mod 32) in
  List.iter
    (fun (what, io) ->
      let w = words_per_request io in
      check Alcotest.bool
        (Printf.sprintf "%s: %.1f minor words per request <= %.0f" what w request_words_bound)
        true (w <= request_words_bound))
    [
      ("read_into", read);
      ("write_from", write);
      ("share_from", share);
      ("share_into", share_into);
    ]

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* The same path with Trace and Ledger installed: three readers, two on
   one disk (queue wait) and one on a second disk of the same bus (bus
   contention), each under its own request ledger. Every chunk still
   emits its position, read and bus spans, and the per-category totals
   are the ones the closure-built path charged. *)
let test_request_observed () =
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.start e in
  Sim.Ledger.install e;
  Fun.protect
    ~finally:(fun () ->
      Sim.Trace.stop ();
      Sim.Ledger.uninstall ())
    (fun () ->
      let bus = Scsi_bus.create e "obs" in
      let d0 = Disk.create e ~bus ~nblocks:4096 Disk.rz57 ~name:"obs0" in
      let d1 = Disk.create e ~bus ~nblocks:4096 Disk.rz57 ~name:"obs1" in
      let reader d ~blk ~count =
        Sim.Engine.spawn e (fun () ->
            let l = Sim.Ledger.open_request ~kind:"probe" in
            Sim.Ledger.with_active l (fun () -> ignore (Disk.read d ~blk ~count));
            Sim.Ledger.close l)
      in
      reader d0 ~blk:100 ~count:40;
      reader d0 ~blk:2000 ~count:24;
      reader d1 ~blk:300 ~count:32;
      Sim.Engine.run e;
      let js = Sim.Trace.export tr in
      (* 3 + 2 chunks on obs0, 2 on obs1 *)
      check Alcotest.int "position spans" 7 (count_sub js "\"name\":\"position\"");
      check Alcotest.int "read spans" 7 (count_sub js "\"name\":\"read\"");
      check Alcotest.int "bus spans" 7 (count_sub js "\"name\":\"xfer\"");
      let cs =
        match List.find_opt (fun cs -> cs.Sim.Ledger.cls = "probe") (Sim.Ledger.summary ()) with
        | Some cs -> cs
        | None -> Alcotest.fail "no probe class"
      in
      check Alcotest.int "requests" 3 cs.Sim.Ledger.requests;
      let total cat =
        match List.find_opt (fun c -> c.Sim.Ledger.cat = cat) cs.Sim.Ledger.by_category with
        | Some c -> c.Sim.Ledger.total_s
        | None -> 0.0
      in
      List.iter
        (fun (cat, expected) ->
          let got = total cat in
          check Alcotest.bool
            (Printf.sprintf "%s total %.9f = %.9f" (Sim.Ledger.category_name cat) got expected)
            true
            (Float.abs (got -. expected) <= 1e-12))
        [
          (Sim.Ledger.Seek_rotate, 0.18269435726611424);
          (Sim.Ledger.Transfer, 0.27099505998588569);
          (Sim.Ledger.Bus_contention, 0.10685417903924278);
          (Sim.Ledger.Queue_wait, 0.30283669074964853);
        ])

(* --- Jukebox --- *)

let mk_jb ?(drives = 2) ?(nvolumes = 4) ?(vol_capacity = 2560) e =
  Jukebox.create e ~drives ~nvolumes ~vol_capacity ~media:Jukebox.hp6300_platter
    ~changer:Jukebox.hp6300_changer "jb"

let test_jukebox_swap_cost () =
  in_sim (fun e ->
      let jb = mk_jb e in
      let t0 = Sim.Engine.now e in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
      let first = Sim.Engine.now e -. t0 in
      check Alcotest.bool "first access pays a swap" true (first > 13.0);
      let t1 = Sim.Engine.now e in
      ignore (Jukebox.read jb ~vol:0 ~blk:1 ~count:1);
      let second = Sim.Engine.now e -. t1 in
      check Alcotest.bool "loaded volume is cheap" true (second < 0.5);
      check Alcotest.int "one swap" 1 (Jukebox.swaps jb))

let test_jukebox_two_drives_hold_two_volumes () =
  in_sim (fun e ->
      let jb = mk_jb e in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:1 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:0 ~blk:1 ~count:1);
      ignore (Jukebox.read jb ~vol:1 ~blk:1 ~count:1);
      (* both fit: exactly two swaps *)
      check Alcotest.int "two swaps" 2 (Jukebox.swaps jb))

let test_jukebox_eviction_lru () =
  in_sim (fun e ->
      let jb = mk_jb e in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:1 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:0 ~blk:1 ~count:1) (* touch 0 so 1 is LRU *);
      ignore (Jukebox.read jb ~vol:2 ~blk:0 ~count:1) (* evicts 1 *);
      let held = Jukebox.loaded jb in
      check Alcotest.bool "vol0 still loaded" true (Array.mem (Some 0) held);
      check Alcotest.bool "vol2 loaded" true (Array.mem (Some 2) held);
      check Alcotest.bool "vol1 ejected" false (Array.mem (Some 1) held))

let test_jukebox_data_roundtrip () =
  in_sim (fun e ->
      let jb = mk_jb e in
      let data = Bytes.init (4096 * 3) (fun i -> Char.chr (i land 0xff)) in
      Jukebox.write jb ~vol:2 ~blk:100 data;
      check Alcotest.bytes "tertiary roundtrip" data (Jukebox.read jb ~vol:2 ~blk:100 ~count:3))

let test_jukebox_mo_rates () =
  in_sim (fun e ->
      let jb = mk_jb e in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1) (* pay the swap *);
      let meg = Bytes.create (256 * 4096) in
      let t0 = Sim.Engine.now e in
      for i = 0 to 4 do
        Jukebox.write jb ~vol:0 ~blk:(256 + (i * 256)) meg
      done;
      let w_rate = (5.0 *. 1024.0) /. (Sim.Engine.now e -. t0) in
      check Alcotest.bool
        (Printf.sprintf "MO write ~204 KB/s (got %.0f)" w_rate)
        true
        (w_rate > 185.0 && w_rate <= 204.0);
      let t1 = Sim.Engine.now e in
      for i = 0 to 4 do
        ignore (Jukebox.read jb ~vol:0 ~blk:(256 + (i * 256)) ~count:256)
      done;
      let r_rate = (5.0 *. 1024.0) /. (Sim.Engine.now e -. t1) in
      check Alcotest.bool
        (Printf.sprintf "MO read ~451 KB/s (got %.0f)" r_rate)
        true
        (r_rate > 420.0 && r_rate <= 451.0))

let test_jukebox_write_drive_reservation () =
  in_sim (fun e ->
      let jb = mk_jb e in
      Jukebox.reserve_write_drive jb true;
      Jukebox.write jb ~vol:0 ~blk:0 (Bytes.create 4096);
      ignore (Jukebox.read jb ~vol:1 ~blk:0 ~count:1);
      ignore (Jukebox.read jb ~vol:2 ~blk:0 ~count:1);
      (* reads must not evict the write volume from drive 0 *)
      check Alcotest.(option int) "write volume pinned" (Some 0) (Jukebox.loaded jb).(0))

let test_worm_enforcement () =
  in_sim (fun e ->
      let jb =
        Jukebox.create e ~drives:1 ~nvolumes:2 ~vol_capacity:256 ~media:Jukebox.sony_worm
          ~changer:Jukebox.hp6300_changer "worm"
      in
      Jukebox.write jb ~vol:0 ~blk:5 (Bytes.create 4096);
      check Alcotest.bool "overwrite raises" true
        (try
           Jukebox.write jb ~vol:0 ~blk:5 (Bytes.create 4096);
           false
         with Jukebox.Worm_overwrite { vol = 0; blk = 5 } -> true);
      check Alcotest.bool "erase raises" true
        (try
           Jukebox.erase_volume jb 0;
           false
         with Invalid_argument _ -> true))

let test_tape_seek_proportional () =
  in_sim (fun e ->
      let jb =
        Jukebox.create e ~drives:1 ~nvolumes:1 ~media:Jukebox.metrum_tape
          ~changer:Jukebox.metrum_changer "tape"
      in
      ignore (Jukebox.read jb ~vol:0 ~blk:0 ~count:1);
      let t0 = Sim.Engine.now e in
      ignore (Jukebox.read jb ~vol:0 ~blk:10_000 ~count:1);
      let near = Sim.Engine.now e -. t0 in
      let t1 = Sim.Engine.now e in
      ignore (Jukebox.read jb ~vol:0 ~blk:3_000_000 ~count:1);
      let far = Sim.Engine.now e -. t1 in
      check Alcotest.bool "long tape seek costs more" true (far > 2.0 *. near))

(* --- Concat / stripe --- *)

let test_concat_mapping () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:100 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:50 Disk.rz57 ~name:"d1" in
      let c = Concat.concat [ d0; d1 ] in
      check Alcotest.int "total" 150 (Concat.nblocks c);
      let dev, off = Concat.locate c 99 in
      check Alcotest.string "end of d0" "d0" (Disk.name dev);
      check Alcotest.int "off" 99 off;
      let dev, off = Concat.locate c 100 in
      check Alcotest.string "start of d1" "d1" (Disk.name dev);
      check Alcotest.int "off0" 0 off)

let test_concat_boundary_io () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:100 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:50 Disk.rz57 ~name:"d1" in
      let c = Concat.concat [ d0; d1 ] in
      let data = Bytes.init (4 * 4096) (fun i -> Char.chr ((i * 7) land 0xff)) in
      Concat.write c ~blk:98 data;
      check Alcotest.bytes "spans boundary" data (Concat.read c ~blk:98 ~count:4);
      (* each disk really got its share *)
      check Alcotest.bool "d0 got blocks" true (Blockstore.is_written (Disk.store d0) 99);
      check Alcotest.bool "d1 got blocks" true (Blockstore.is_written (Disk.store d1) 1))

let test_stripe_mapping () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:64 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:64 Disk.rz57 ~name:"d1" in
      let s = Concat.stripe ~stripe_blocks:4 [ d0; d1 ] in
      check Alcotest.int "total" 128 (Concat.nblocks s);
      let dev, _ = Concat.locate s 0 in
      check Alcotest.string "first unit on d0" "d0" (Disk.name dev);
      let dev, off = Concat.locate s 4 in
      check Alcotest.string "second unit on d1" "d1" (Disk.name dev);
      check Alcotest.int "at disk start" 0 off;
      let dev, off = Concat.locate s 8 in
      check Alcotest.string "third unit back on d0" "d0" (Disk.name dev);
      check Alcotest.int "after first unit" 4 off)

let test_stripe_io_roundtrip () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:64 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:64 Disk.rz57 ~name:"d1" in
      let s = Concat.stripe ~stripe_blocks:4 [ d0; d1 ] in
      let data = Bytes.init (12 * 4096) (fun i -> Char.chr ((i * 13) land 0xff)) in
      Concat.write s ~blk:2 data;
      check Alcotest.bytes "striped roundtrip" data (Concat.read s ~blk:2 ~count:12))

(* --- zero-copy views: the *_into / *_from paths must be
   byte-identical to the allocating ones, land exactly inside the
   caller's view, and leave the guard bytes around it untouched --- *)

let test_concat_view_identity () =
  in_sim (fun e ->
      let d0 = Disk.create e ~nblocks:100 Disk.rz57 ~name:"d0" in
      let d1 = Disk.create e ~nblocks:50 Disk.rz57 ~name:"d1" in
      let c = Concat.concat [ d0; d1 ] in
      let bs = 4096 in
      let count = 6 in
      let data = Bytes.init (count * bs) (fun i -> Char.chr ((i * 11) land 0xff)) in
      (* blk 96..101 spans the d0/d1 boundary at 100 *)
      let src = Bytes.make ((count + 4) * bs) '\xaa' in
      Bytes.blit data 0 src (2 * bs) (count * bs);
      Concat.write_from c ~blk:96 ~src ~src_off:(2 * bs) ~count;
      check Alcotest.bytes "plain read sees view write" data (Concat.read c ~blk:96 ~count);
      let dst = Bytes.make ((count + 3) * bs) '\x55' in
      Concat.read_into c ~blk:96 ~count ~dst ~dst_off:bs;
      check Alcotest.bytes "read_into view identical" data (Bytes.sub dst bs (count * bs));
      check Alcotest.char "guard before view intact" '\x55' (Bytes.get dst (bs - 1));
      check Alcotest.char "guard after view intact" '\x55' (Bytes.get dst ((count + 1) * bs)))

let test_jukebox_read_into_identity () =
  in_sim (fun e ->
      let jb = mk_jb e in
      let bs = 4096 in
      let count = 8 in
      let data = Bytes.init (count * bs) (fun i -> Char.chr ((i * 7) land 0xff)) in
      Jukebox.write jb ~vol:1 ~blk:40 data;
      let dst = Bytes.make ((count + 2) * bs) '\x33' in
      Jukebox.read_into jb ~vol:1 ~blk:40 ~count ~dst ~dst_off:bs;
      check Alcotest.bytes "read_into identical to read" (Jukebox.read jb ~vol:1 ~blk:40 ~count)
        (Bytes.sub dst bs (count * bs));
      check Alcotest.char "guard intact" '\x33' (Bytes.get dst 0))

let test_jukebox_stream_into_identity () =
  in_sim (fun e ->
      let jb = mk_jb e in
      let bs = 4096 in
      let count = 40 in
      let data = Bytes.init (count * bs) (fun i -> Char.chr ((i * 5 + 1) land 0xff)) in
      Jukebox.write jb ~vol:0 ~blk:8 data;
      let dst = Blockstore.create ~block_size:bs ~nblocks:(count + 2) in
      let covered = ref 0 in
      let monotone = ref true in
      Jukebox.read_stream_into jb ~vol:0 ~blk:8 ~count ~chunk:16 ~dst ~dst_blk:1
        (fun ~off ~blocks ->
          (* each chunk is in the destination when its callback fires *)
          if not (Blockstore.is_written dst (1 + off + blocks - 1)) then monotone := false;
          if off <> !covered then monotone := false;
          covered := !covered + blocks);
      check Alcotest.bool "chunks delivered in order" true !monotone;
      check Alcotest.int "chunks cover request" count !covered;
      check Alcotest.bytes "streamed bytes identical" data (store_read dst ~blk:1 ~count);
      check Alcotest.bool "block before the range untouched" false (Blockstore.is_written dst 0);
      check Alcotest.bool "block after the range untouched" false
        (Blockstore.is_written dst (count + 1)))

let prop_concat_roundtrip =
  QCheck.Test.make ~name:"concat preserves data at any offset" ~count:60
    QCheck.(pair (int_range 0 140) (int_range 1 8))
    (fun (blk, count) ->
      QCheck.assume (blk + count <= 150);
      in_sim (fun e ->
          let d0 = Disk.create e ~nblocks:100 Disk.rz57 ~name:"d0" in
          let d1 = Disk.create e ~nblocks:50 Disk.rz57 ~name:"d1" in
          let c = Concat.concat [ d0; d1 ] in
          let data = Bytes.init (count * 4096) (fun i -> Char.chr ((blk + i) land 0xff)) in
          Concat.write c ~blk data;
          Concat.read c ~blk ~count = data))

let prop_stripe_locate_bijective =
  QCheck.Test.make ~name:"stripe mapping is a bijection" ~count:30
    QCheck.(pair (int_range 1 8) (int_range 2 4))
    (fun (unit_blocks, ndisks) ->
      in_sim (fun e ->
          let disks =
            List.init ndisks (fun i ->
                Disk.create e ~nblocks:64 Disk.rz57 ~name:(Printf.sprintf "d%d" i))
          in
          let s = Concat.stripe ~stripe_blocks:unit_blocks disks in
          let seen = Hashtbl.create 97 in
          let ok = ref true in
          for blk = 0 to Concat.nblocks s - 1 do
            let d, off = Concat.locate s blk in
            let key = (Disk.name d, off) in
            if Hashtbl.mem seen key then ok := false;
            Hashtbl.replace seen key ()
          done;
          !ok && Hashtbl.length seen = Concat.nblocks s))

let prop_seek_monotone =
  QCheck.Test.make ~name:"longer seeks never cost less" ~count:40
    QCheck.(pair (int_range 1 100_000) (int_range 1 100_000))
    (fun (d1, d2) ->
      let near = min d1 d2 and far = max d1 d2 in
      let time_of dist =
        in_sim (fun e ->
            let d = Disk.create e Disk.rz57 ~name:"d" in
            ignore (Disk.read d ~blk:0 ~count:1) (* park the arm *);
            let t0 = Sim.Engine.now e in
            ignore (Disk.read d ~blk:dist ~count:1);
            Sim.Engine.now e -. t0)
      in
      time_of far >= time_of near -. 1e-9)

let prop_jukebox_roundtrip =
  QCheck.Test.make ~name:"jukebox preserves data across volumes" ~count:30
    QCheck.(triple (int_range 0 3) (int_range 0 2500) (int_range 1 8))
    (fun (vol, blk, count) ->
      QCheck.assume (blk + count <= 2560);
      in_sim (fun e ->
          let jb =
            Jukebox.create e ~drives:2 ~nvolumes:4 ~vol_capacity:2560
              ~media:Jukebox.hp6300_platter ~changer:Jukebox.hp6300_changer "jb"
          in
          let data = Bytes.init (count * 4096) (fun i -> Char.chr ((vol + blk + i) land 0xff)) in
          Jukebox.write jb ~vol ~blk data;
          Bytes.equal data (Jukebox.read jb ~vol ~blk ~count)))

let props =
  [ prop_concat_roundtrip; prop_stripe_locate_bijective; prop_seek_monotone;
    prop_jukebox_roundtrip; prop_store_matches_model ]

let suite =
  [
    ( "device.blockstore",
      [
        Alcotest.test_case "zero fill" `Quick test_store_zero_fill;
        Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "bounds" `Quick test_store_bounds;
        Alcotest.test_case "erase block" `Quick test_store_erase_block;
        Alcotest.test_case "snapshot cost" `Quick test_store_snapshot_cost;
        Alcotest.test_case "zero page: whole-page zero write" `Quick test_store_zero_page_write;
        Alcotest.test_case "zero page: copy-on-write" `Quick test_store_zero_page_cow;
        Alcotest.test_case "zero page: never private" `Quick test_store_zero_page_never_private;
        Alcotest.test_case "zero page: WORM" `Quick test_store_zero_page_worm;
      ] );
    ( "device.disk",
      [
        Alcotest.test_case "sequential rate matches Table 5" `Quick test_disk_sequential_rate;
        Alcotest.test_case "write slower than read" `Quick test_disk_write_slower_than_read;
        Alcotest.test_case "random slower than sequential" `Quick
          test_disk_random_slower_than_sequential;
        Alcotest.test_case "data integrity" `Quick test_disk_data_integrity;
        Alcotest.test_case "arm contention interleaves" `Quick test_disk_contention_interleaves;
        Alcotest.test_case "stats" `Quick test_disk_stats;
        Alcotest.test_case "untraced request allocation" `Quick test_request_alloc;
        Alcotest.test_case "observed request spans and charges" `Quick test_request_observed;
      ] );
    ( "device.jukebox",
      [
        Alcotest.test_case "swap cost" `Quick test_jukebox_swap_cost;
        Alcotest.test_case "two drives hold two volumes" `Quick
          test_jukebox_two_drives_hold_two_volumes;
        Alcotest.test_case "LRU eviction" `Quick test_jukebox_eviction_lru;
        Alcotest.test_case "data roundtrip" `Quick test_jukebox_data_roundtrip;
        Alcotest.test_case "MO rates match Table 5" `Quick test_jukebox_mo_rates;
        Alcotest.test_case "write drive reservation" `Quick test_jukebox_write_drive_reservation;
        Alcotest.test_case "WORM enforcement" `Quick test_worm_enforcement;
        Alcotest.test_case "tape seek proportional" `Quick test_tape_seek_proportional;
        Alcotest.test_case "read_into view identity" `Quick test_jukebox_read_into_identity;
        Alcotest.test_case "read_stream_into view identity" `Quick
          test_jukebox_stream_into_identity;
      ] );
    ( "device.concat",
      [
        Alcotest.test_case "concat mapping" `Quick test_concat_mapping;
        Alcotest.test_case "boundary io" `Quick test_concat_boundary_io;
        Alcotest.test_case "stripe mapping" `Quick test_stripe_mapping;
        Alcotest.test_case "stripe roundtrip" `Quick test_stripe_io_roundtrip;
        Alcotest.test_case "zero-copy view identity" `Quick test_concat_view_identity;
      ] );
    ("device.properties", List.map QCheck_alcotest.to_alcotest props);
  ]
