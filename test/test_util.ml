open Util

let check = Alcotest.check

(* --- Bytesx --- *)

let test_u16_roundtrip () =
  let b = Bytes.create 8 in
  List.iter
    (fun v ->
      Bytesx.set_u16 b 2 v;
      check Alcotest.int "u16" v (Bytesx.get_u16 b 2))
    [ 0; 1; 255; 256; 0xfffe; 0xffff ]

let test_u32_roundtrip () =
  let b = Bytes.create 16 in
  List.iter
    (fun v ->
      Bytesx.set_u32 b 4 v;
      check Alcotest.int "u32" v (Bytesx.get_u32 b 4))
    [ 0; 1; 0xffff; 0x7fffffff; 0xdeadbeef; 0xffffffff ]

let test_i32_negative () =
  let b = Bytes.create 8 in
  List.iter
    (fun v ->
      Bytesx.set_i32 b 0 v;
      check Alcotest.int "i32" v (Bytesx.get_i32 b 0))
    [ -1; -12345; 0; 1; 0x7fffffff; -0x80000000 ]

let test_u64_roundtrip () =
  let b = Bytes.create 16 in
  List.iter
    (fun v ->
      Bytesx.set_u64 b 8 v;
      check Alcotest.int64 "u64" v (Bytesx.get_u64 b 8))
    [ 0L; 1L; Int64.max_int; Int64.min_int; 0xdeadbeefcafef00dL ]

let test_string_field () =
  let b = Bytes.make 32 'x' in
  Bytesx.set_string b ~pos:4 ~len:12 "hello";
  check Alcotest.string "name" "hello" (Bytesx.get_string b ~pos:4 ~len:12);
  (* padding must be NUL, not leftovers *)
  check Alcotest.char "pad" '\000' (Bytes.get b (4 + 5));
  Bytesx.set_string b ~pos:4 ~len:12 "exactly12chr";
  check Alcotest.string "full width" "exactly12chr" (Bytesx.get_string b ~pos:4 ~len:12);
  Alcotest.check_raises "too long" (Invalid_argument "Bytesx.set_string: too long")
    (fun () -> Bytesx.set_string b ~pos:4 ~len:12 "much too long indeed")

let test_is_zero () =
  check Alcotest.bool "fresh" true (Bytesx.is_zero (Bytes.make 64 '\000'));
  let b = Bytes.make 64 '\000' in
  Bytes.set b 63 '\001';
  check Alcotest.bool "dirty" false (Bytesx.is_zero b);
  check Alcotest.bool "empty" true (Bytesx.is_zero Bytes.empty);
  (* ranges: a lone nonzero byte inside, before or after the range,
     at every offset and length around the word size *)
  let b = Bytes.make 40 '\000' in
  for dirty = -1 to 39 do
    if dirty >= 0 then Bytes.set b dirty '\255';
    for off = 0 to 39 do
      for len = 0 to 40 - off do
        let expect = dirty < off || dirty >= off + len in
        if Bytesx.is_zero_sub b off len <> expect then
          Alcotest.failf "is_zero_sub off=%d len=%d with byte %d set" off len dirty
      done
    done;
    if dirty >= 0 then Bytes.set b dirty '\000'
  done;
  Alcotest.check_raises "range past the end" (Invalid_argument "Bytesx.is_zero_sub") (fun () ->
      ignore (Bytesx.is_zero_sub b 36 5))

(* --- Crc32 --- *)

let test_crc32_known () =
  (* Standard test vector for CRC-32/IEEE. *)
  check Alcotest.int "123456789" 0xcbf43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "")

let test_crc32_combine () =
  let a = Bytes.of_string "hello " and b = Bytes.of_string "world" in
  let whole = Crc32.string "hello world" in
  check Alcotest.int "combine" whole
    (Crc32.combine (Crc32.shift (Bytes.length b)) (Crc32.bytes a) (Crc32.bytes b));
  check Alcotest.int "combine with nothing" (Crc32.bytes a)
    (Crc32.combine (Crc32.shift 0) (Crc32.bytes a) (Crc32.string ""))

let test_crc32_range () =
  let b = Bytes.of_string "xxhelloyy" in
  check Alcotest.int "sub" (Crc32.string "hello") (Crc32.bytes ~off:2 ~len:5 b)

(* The bytewise CRC-32 the library first ran, kept here as the oracle
   for both C kernels. *)
let crc32_reference b off len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xffffffff in
  for i = off to off + len - 1 do
    crc := table.((!crc lxor Char.code (Bytes.get b i)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let pseudo_random_bytes n =
  Bytes.init n (fun i -> Char.chr ((((i * 89) + 13) lxor (i lsr 7)) land 0xff))

let test_crc32_every_short_range () =
  (* every offset 0..15 and every length 0..300: the 64-byte fold entry,
     each count of 16-byte folds after it, every tail the table kernel
     finishes, and the short ranges it runs alone *)
  let b = pseudo_random_bytes 320 in
  for off = 0 to 15 do
    for len = 0 to 300 do
      let want = crc32_reference b off len in
      let label = Printf.sprintf "off %d len %d" off len in
      check Alcotest.int label want (Crc32.bytes ~off ~len b);
      check Alcotest.int ("table " ^ label) want (Crc32.Private.table_bytes ~off ~len b)
    done
  done

let test_crc32_kernels_agree () =
  (* the portable kernel against the one in use (the fast one on a CPU
     with PCLMULQDQ) on long ranges, up to a whole 1 MB segment *)
  check Alcotest.bool "known kernel" true (List.mem Crc32.kernel [ "pclmul"; "table" ]);
  let b = pseudo_random_bytes ((1 lsl 20) + 16) in
  List.iter
    (fun len ->
      for off = 0 to 15 do
        let label = Printf.sprintf "off %d len %d" off len in
        check Alcotest.int label (Crc32.Private.table_bytes ~off ~len b) (Crc32.bytes ~off ~len b)
      done)
    [ 1023; 4096; 4097; 4111; 4160; 65535; 1 lsl 20 ];
  check Alcotest.int "a segment against the bytewise reference"
    (crc32_reference b 3 (1 lsl 20)) (Crc32.bytes ~off:3 ~len:(1 lsl 20) b)

let test_crc32_out_of_range () =
  let b = Bytes.make 16 'a' in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check Alcotest.bool "negative off" true (raises (fun () -> Crc32.bytes ~off:(-1) ~len:4 b));
  check Alcotest.bool "past the end" true (raises (fun () -> Crc32.bytes ~off:10 ~len:7 b));
  check Alcotest.bool "negative len" true (raises (fun () -> Crc32.bytes ~off:2 ~len:(-1) b));
  check Alcotest.bool "off beyond length" true (raises (fun () -> Crc32.bytes ~off:17 b));
  check Alcotest.bool "long past the end" true (raises (fun () -> Crc32.bytes ~off:0 ~len:24 b));
  check Alcotest.int "whole buffer is in range" (crc32_reference b 0 16) (Crc32.bytes ~off:0 ~len:16 b)

(* The summary and superblock checksums are CRC-32 over the block with
   the checksum word zeroed; both must agree with the reference and
   round-trip. *)
let test_crc32_summary_superblock () =
  let open Lfs in
  let sum =
    {
      Summary.ss_next = 4242;
      ss_create = 17.25;
      ss_serial = 99L;
      ss_flags = 1;
      finfos =
        [ { Summary.fi_ino = 5; fi_version = 2; fi_lastlength = 300; fi_blocks = [ Bkey.Data 0; Bkey.Data 1 ] } ];
      inode_addrs = [ 1234 ];
    }
  in
  let block = Summary.serialize ~block_size:4096 ~data_crc:0x1234567 sum in
  let zeroed = Bytes.copy block in
  Bytesx.set_u32 zeroed 0 0;
  check Alcotest.int "summary sumsum" (crc32_reference zeroed 0 4096) (Bytesx.get_u32 block 0);
  (match Summary.deserialize block with
  | Ok (sum', crc) ->
      check Alcotest.bool "summary round-trip" true (sum = sum');
      check Alcotest.int "summary datasum" 0x1234567 crc
  | Error _ -> Alcotest.fail "summary should parse");
  (* serialize_into at an offset lands the same block *)
  let buf = Bytes.make (3 * 4096) '\xff' in
  Summary.serialize_into ~block_size:4096 ~data_crc:0x1234567 sum ~dst:buf ~dst_off:4096;
  check Alcotest.bytes "serialize_into = serialize" block (Bytes.sub buf 4096 4096);
  check Alcotest.bool "neighbours untouched" true
    (Bytes.for_all (( = ) '\xff') (Bytes.sub buf 0 4096)
    && Bytes.for_all (( = ) '\xff') (Bytes.sub buf 8192 4096));
  let sb =
    { Superblock.block_size = 4096; seg_blocks = 256; nsegs = 32; max_inodes = 1000; tertiary = None }
  in
  let sblock = Superblock.serialize ~block_size:4096 sb in
  let zeroed = Bytes.copy sblock in
  Bytesx.set_u32 zeroed 0 0;
  check Alcotest.int "superblock checksum" (crc32_reference zeroed 0 4096) (Bytesx.get_u32 sblock 0);
  check Alcotest.bool "superblock round-trip" true (Superblock.deserialize sblock = Ok sb);
  let cp =
    {
      Superblock.serial = 7L;
      timestamp = 3.5;
      ifile_inode_addr = 600;
      cur_seg = 4;
      cur_off = 17;
      next_seg = 5;
      tvol = 1;
      tseg_in_vol = 2;
    }
  in
  let cblock = Superblock.serialize_checkpoint ~block_size:4096 cp in
  check Alcotest.bool "checkpoint round-trip" true (Superblock.deserialize_checkpoint cblock = Some cp)

(* --- Heap --- *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare () in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  check Alcotest.(list int) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_peek () =
  let h = Heap.create ~cmp:compare () in
  check Alcotest.(option int) "empty" None (Heap.peek h);
  Heap.push h 3;
  Heap.push h 1;
  check Alcotest.(option int) "peek" (Some 1) (Heap.peek h);
  check Alcotest.int "len" 2 (Heap.length h)

(* Popped cells must drop their element reference: push a payload
   tracked through a weak pointer from a no-inline helper (so no stack
   root survives), pop it, and a full major must reclaim it. *)
let[@inline never] push_tracked h =
  let payload = Bytes.make 64 'x' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some payload);
  Heap.push h (1, payload);
  w

let test_heap_pop_releases () =
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) () in
  Heap.push h (2, Bytes.make 64 'y');
  let w = push_tracked h in
  (match Heap.pop h with
  | Some (k, _) -> check Alcotest.int "min popped" 1 k
  | None -> Alcotest.fail "heap empty");
  Gc.full_major ();
  check Alcotest.bool "popped payload reclaimed" true (Weak.get w 0 = None);
  check Alcotest.int "survivor stays" 1 (Heap.length h)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int c 1000) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_zipf_skew () =
  let r = Rng.create 7 in
  let z = Rng.zipf ~s:1.0 ~n:100 in
  let counts = Array.make 101 0 in
  for _ = 1 to 20_000 do
    let k = Rng.zipf_draw r z in
    check Alcotest.bool "in range" true (k >= 1 && k <= 100);
    counts.(k) <- counts.(k) + 1
  done;
  check Alcotest.bool "rank 1 beats rank 50" true (counts.(1) > counts.(50));
  check Alcotest.bool "rank 1 dominates" true (counts.(1) > 2_000)

(* --- property tests --- *)

let prop_crc_detects_flip =
  QCheck.Test.make ~name:"crc32 detects any single bit flip" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (int_bound 1000))
    (fun (s, pos_seed) ->
      QCheck.assume (String.length s > 0);
      let b = Bytes.of_string s in
      let pos = pos_seed mod Bytes.length b in
      let bit = pos_seed mod 8 in
      let orig = Crc32.bytes b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      Crc32.bytes b <> orig)

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"crc32 matches the bytewise reference on any range" ~count:500
    QCheck.(triple (string_of_size Gen.(0 -- 300)) small_nat small_nat)
    (fun (s, a, c) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else c mod (n - off + 1) in
      Crc32.bytes ~off ~len b = crc32_reference b off len)

let prop_crc_kernel_matches_reference =
  QCheck.Test.make ~name:"crc32 kernels match the bytewise reference up to 9000 bytes"
    ~count:300
    QCheck.(triple (int_bound 9_000) (int_bound 15) int)
    (fun (len, off, seed) ->
      let rng = Random.State.make [| seed |] in
      let b = Bytes.init (off + len) (fun _ -> Char.chr (Random.State.int rng 256)) in
      let want = crc32_reference b off len in
      Crc32.bytes ~off ~len b = want && Crc32.Private.table_bytes ~off ~len b = want)

let prop_crc_combine_chains =
  QCheck.Test.make ~name:"crc32 combine over pieces equals one pass" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (small_list small_nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq Int.compare (List.map (fun c -> if n = 0 then 0 else c mod n) cuts) in
      let rec pieces from = function
        | [] -> [ String.sub s from (n - from) ]
        | c :: rest when c <= from -> pieces from rest
        | c :: rest -> String.sub s from (c - from) :: pieces c rest
      in
      List.fold_left
        (fun crc p -> Crc32.combine (Crc32.shift (String.length p)) crc (Crc32.string p))
        0 (pieces 0 cuts)
      = Crc32.string s)

(* The log writer's use: per-block sums folded in block order must give
   the one-pass sum over the concatenated blocks. *)
let prop_crc_fold_blocks =
  QCheck.Test.make ~name:"crc32 folded block sums equal the sum of the concatenation"
    ~count:60
    QCheck.(triple (oneofl [ 512; 1024; 4096 ]) (int_bound 300) small_nat)
    (fun (bs, nblocks, seed) ->
      let rng = Random.State.make [| seed; bs; nblocks |] in
      let data = Bytes.init (nblocks * bs) (fun _ -> Char.chr (Random.State.int rng 256)) in
      let sh = Crc32.shift bs in
      let folded = ref 0 in
      for i = 0 to nblocks - 1 do
        folded := Crc32.combine sh !folded (Crc32.bytes ~off:(i * bs) ~len:bs data)
      done;
      !folded = Crc32.bytes data)

let prop_heap_pop_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare () in
      List.iter (Heap.push h) xs;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some x -> x >= prev && drain x
      in
      drain min_int)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* --- Bufpool --- *)

let test_bufpool_recycles () =
  let p = Bufpool.create 64 in
  let b = Bufpool.take p in
  check Alcotest.int "size" 64 (Bytes.length (Bufpool.bytes b));
  Bufpool.give p b;
  check Alcotest.bool "on the free list" true (Bufpool.is_free b);
  check Alcotest.bool "the same buffer comes back" true (Bufpool.take p == b);
  check Alcotest.bool "taken off the free list" false (Bufpool.is_free b)

let test_bufpool_double_give () =
  let p = Bufpool.create 64 in
  let a = Bufpool.take p and b = Bufpool.take p in
  Bufpool.give p b;
  Alcotest.check_raises "second give" (Invalid_argument "Bufpool.give: buffer already free")
    (fun () -> Bufpool.give p b);
  Bufpool.give p a;
  check Alcotest.int "free list holds the peak" 2 (Bufpool.free_count p)

let test_bufpool_wrong_size () =
  let p = Bufpool.create 64 in
  ignore (Bufpool.take p);
  Alcotest.check_raises "another size"
    (Invalid_argument "Bufpool.give: buffer of another size")
    (fun () -> Bufpool.give p (Bufpool.take (Bufpool.create 32)));
  Alcotest.check_raises "the placeholder"
    (Invalid_argument "Bufpool.give: buffer of another size")
    (fun () -> Bufpool.give p Bufpool.none);
  check Alcotest.int "nothing added" 0 (Bufpool.free_count p)

(* The checks read the buffer's own flag, not the free list: a list of
   a few thousand buffers (a block pool's size on a busy cache) rejects
   its bottom buffer's second give and a foreign buffer at once. *)
let test_bufpool_long_free_list () =
  let p = Bufpool.create 64 in
  let bufs = List.init 2000 (fun _ -> Bufpool.take p) in
  List.iter (Bufpool.give p) bufs;
  check Alcotest.int "all free" 2000 (Bufpool.free_count p);
  ignore (Bufpool.take p);
  Alcotest.check_raises "bottom buffer given twice"
    (Invalid_argument "Bufpool.give: buffer already free")
    (fun () -> Bufpool.give p (List.hd bufs));
  Alcotest.check_raises "another size"
    (Invalid_argument "Bufpool.give: buffer of another size")
    (fun () -> Bufpool.give p (Bufpool.take (Bufpool.create 128)));
  check Alcotest.int "nothing added" 1999 (Bufpool.free_count p)

let props = [ prop_crc_detects_flip; prop_crc_matches_reference; prop_crc_kernel_matches_reference;
              prop_crc_combine_chains;
              prop_crc_fold_blocks;
              prop_heap_pop_sorted; prop_rng_int_in_bounds ]

let suite =
  [
    ( "util.bytesx",
      [
        Alcotest.test_case "u16 roundtrip" `Quick test_u16_roundtrip;
        Alcotest.test_case "u32 roundtrip" `Quick test_u32_roundtrip;
        Alcotest.test_case "i32 negative" `Quick test_i32_negative;
        Alcotest.test_case "u64 roundtrip" `Quick test_u64_roundtrip;
        Alcotest.test_case "string field" `Quick test_string_field;
        Alcotest.test_case "is_zero" `Quick test_is_zero;
      ] );
    ( "util.crc32",
      [
        Alcotest.test_case "known vectors" `Quick test_crc32_known;
        Alcotest.test_case "combine" `Quick test_crc32_combine;
        Alcotest.test_case "byte range" `Quick test_crc32_range;
        Alcotest.test_case "every short range" `Quick test_crc32_every_short_range;
        Alcotest.test_case "table and fast kernels agree" `Quick test_crc32_kernels_agree;
        Alcotest.test_case "out-of-range view raises" `Quick test_crc32_out_of_range;
        Alcotest.test_case "summary and superblock sums" `Quick test_crc32_summary_superblock;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "peek/length" `Quick test_heap_peek;
        Alcotest.test_case "pop releases element" `Quick test_heap_pop_releases;
      ] );
    ( "util.bufpool",
      [
        Alcotest.test_case "give then take recycles" `Quick test_bufpool_recycles;
        Alcotest.test_case "double give raises" `Quick test_bufpool_double_give;
        Alcotest.test_case "wrong size raises" `Quick test_bufpool_wrong_size;
        Alcotest.test_case "checks hold on a long free list" `Quick test_bufpool_long_free_list;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
      ] );
    ("util.properties", List.map QCheck_alcotest.to_alcotest props);
  ]
