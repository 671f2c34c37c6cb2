(* [Lfs.Bcache]'s keys and replacement rules. A packed key gives back
   its inum and block and, within one Bkey level, sorts in (inum, Bkey)
   order, which the log writer's flush relies on. The clean entries form
   an LRU: [find] promotes, the least recently used entry is evicted once
   the clean count reaches the capacity, and dirty entries are pinned. *)

open Lfs

let check = Alcotest.check
let block = 16
let k i lbn = Bcache.key i (Bkey.Data lbn)
let mem cache key = match Bcache.addr_of cache key with _ -> true | exception Not_found -> false
let found cache key =
  let data = Bcache.find cache key in
  if data == Bcache.miss then None else Some (Bytes.to_string data)

(* a pooled buffer of the cache, filled with [c] *)
let filled cache c =
  let b = Bcache.take cache in
  Bytes.fill (Util.Bufpool.bytes b) 0 block c;
  b

let put_clean cache key c = Bcache.put_clean_buf cache key ~addr:1 ~crc:(-1) (filled cache c)
let put_dirty cache key c = Bcache.put_dirty_buf cache key ~old_addr:(-1) ~crc:(-1) (filled cache c)

(* --- keys --- *)

let edge_bkeys =
  let top = (1 lsl 20) - 1 in
  Bkey.
    [
      Data 0; Data 1; Data ndirect; Data max_encodable_lbn; L1 0; L1 1; L1 top; L2 0; L2 1;
      L2 top; L3;
    ]

let test_key_edges () =
  let max_inodes = (Param.default ~nsegs:16).Param.max_inodes in
  List.iter
    (fun inum ->
      List.iter
        (fun bkey ->
          let key = Bcache.key inum bkey in
          let what = Format.asprintf "(%d, %a)" inum Bkey.pp bkey in
          check Alcotest.int (what ^ " inum") inum (Bcache.inum key);
          check Alcotest.bool (what ^ " bkey") true (Bkey.equal bkey (Bcache.bkey key)))
        edge_bkeys)
    [ 0; 1; max_inodes - 1; max_inodes ];
  let raises what f =
    check Alcotest.bool what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "negative inum" (fun () -> Bcache.key (-1) (Bkey.Data 0));
  raises "lbn past the summary encoding" (fun () ->
      Bcache.key 1 (Bkey.Data (Bkey.max_encodable_lbn + 1)));
  raises "L1 past the summary encoding" (fun () -> Bcache.key 1 (Bkey.L1 (1 lsl 20)))

(* a block of the given level: an edge of the level's range or a random
   index in it *)
let gen_bkey level =
  let open QCheck.Gen in
  let top = (1 lsl 20) - 1 in
  let index hi = oneof [ oneofl [ 0; 1; hi - 1; hi ]; int_bound hi ] in
  match level with
  | 0 -> map (fun n -> Bkey.Data n) (index Bkey.max_encodable_lbn)
  | 1 -> map (fun n -> Bkey.L1 n) (index top)
  | 2 -> map (fun n -> Bkey.L2 n) (index top)
  | _ -> return Bkey.L3

let gen_block level =
  QCheck.Gen.(pair (oneof [ oneofl [ 0; 1; 65536 ]; int_bound 70000 ]) (gen_bkey level))

let show_block (i, b) = Format.asprintf "(%d, %a)" i Bkey.pp b

let prop_key_order =
  QCheck.Test.make ~name:"keys sort like (inum, Bkey)" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(pair show_block show_block)
       QCheck.Gen.(int_bound 3 >>= fun level -> pair (gen_block level) (gen_block level)))
    (fun ((i1, b1), (i2, b2)) ->
      let sign c = compare c 0 in
      let expected = match compare i1 i2 with 0 -> Bkey.compare b1 b2 | c -> c in
      let k1 = Bcache.key i1 b1 and k2 = Bcache.key i2 b2 in
      sign (compare (k1 :> int) (k2 :> int)) = sign expected
      && Bcache.inum k1 = i1
      && Bkey.equal (Bcache.bkey k1) b1)

(* --- LRU rules --- *)

let test_basic_eviction () =
  let c = Bcache.create ~cap:2 ~block_size:block in
  put_clean c (k 1 0) 'a';
  put_clean c (k 1 1) 'b';
  check Alcotest.(option string) "find 1" (Some (String.make block 'a')) (found c (k 1 0));
  put_clean c (k 1 2) 'c' (* evicts (1, 1), since (1, 0) was just promoted *);
  check Alcotest.bool "(1, 1) gone" false (mem c (k 1 1));
  check Alcotest.bool "(1, 0) stays" true (mem c (k 1 0));
  check Alcotest.int "clean count" 2 (Bcache.clean_count c)

let test_eviction_releases () =
  let c = Bcache.create ~cap:1 ~block_size:block in
  let b = Bcache.take c in
  Bcache.put_clean_buf c (k 1 0) ~addr:1 ~crc:(-1) b;
  Bcache.put_clean_buf c (k 2 0) ~addr:2 ~crc:(-1) (Bcache.take c);
  check Alcotest.bool "evicted" false (mem c (k 1 0));
  check Alcotest.bool "its buffer is free" true (Util.Bufpool.is_free b)

let test_replace () =
  let c = Bcache.create ~cap:2 ~block_size:block in
  put_clean c (k 1 0) 'a';
  put_clean c (k 1 0) 'b';
  check Alcotest.(option string) "replaced" (Some (String.make block 'b')) (found c (k 1 0));
  check Alcotest.int "no duplicate" 1 (Bcache.clean_count c)

let test_lookups_no_promote () =
  let c = Bcache.create ~cap:2 ~block_size:block in
  put_clean c (k 1 0) 'a';
  put_clean c (k 1 1) 'b';
  ignore (Bcache.addr_of c (k 1 0));
  ignore (Bcache.is_dirty c (k 1 0));
  ignore (Bcache.crc c (k 1 0) Bytes.empty);
  put_clean c (k 1 2) 'c';
  (* (1, 0) was looked at, not used, so it is still the LRU entry *)
  check Alcotest.bool "(1, 0) evicted" false (mem c (k 1 0));
  check Alcotest.bool "(1, 1) stays" true (mem c (k 1 1))

(* A lookup returns the entry's own bytes or the shared [miss]
   sentinel: no option per hit, so a run of lookups allocates nothing
   (the two [Gc.minor_words] readings box a float each). *)
let test_find_allocates_nothing () =
  let c = Bcache.create ~cap:4 ~block_size:block in
  put_clean c (k 1 0) 'a';
  put_dirty c (k 1 1) 'b';
  check Alcotest.bool "a miss is the sentinel" true (Bcache.find c (k 1 2) == Bcache.miss);
  check Alcotest.bool "a hit is not" true (Bcache.find c (k 1 0) != Bcache.miss);
  let keys = [| k 1 0; k 1 1; k 1 2 |] in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 999 do
    if Bcache.find c keys.(i mod 3) != Bcache.miss then incr hits
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "hits" 667 !hits;
  check Alcotest.bool (Printf.sprintf "%.0f minor words for 1000 lookups" words) true (words < 16.0)

let test_eviction_order () =
  let c = Bcache.create ~cap:3 ~block_size:block in
  List.iter (fun lbn -> put_clean c (k 1 lbn) 'x') [ 0; 1; 2 ];
  ignore (Bcache.find c (k 1 0));
  let evicted_by lbn =
    put_clean c (k 1 lbn) 'y';
    List.filter (fun old -> not (mem c (k 1 old))) [ 0; 1; 2 ]
  in
  check Alcotest.(list int) "least recent first" [ 1 ] (evicted_by 3);
  check Alcotest.(list int) "then" [ 1; 2 ] (evicted_by 4);
  check Alcotest.(list int) "the promoted one last" [ 0; 1; 2 ] (evicted_by 5)

let test_drop_invalidate () =
  let c = Bcache.create ~cap:4 ~block_size:block in
  List.iter (fun lbn -> put_clean c (k 1 lbn) 'x') [ 0; 1; 2 ];
  put_dirty c (k 1 3) 'd';
  Bcache.drop c (k 1 1);
  check Alcotest.bool "dropped" false (mem c (k 1 1));
  check Alcotest.int "clean count" 2 (Bcache.clean_count c);
  Bcache.invalidate_clean c;
  check Alcotest.int "cleared" 0 (Bcache.clean_count c);
  check Alcotest.int "dirty entry kept" 1 (Bcache.dirty_count c);
  check Alcotest.bool "and still found" true (mem c (k 1 3))

let prop_clean_bounded =
  QCheck.Test.make ~name:"clean count bounded by cap" ~count:200
    QCheck.(pair (int_range 1 16) (list small_nat))
    (fun (cap, lbns) ->
      let c = Bcache.create ~cap ~block_size:block in
      List.for_all
        (fun lbn ->
          put_clean c (k 1 lbn) 'x';
          Bcache.clean_count c <= cap)
        lbns)

let prop_last_put_found =
  QCheck.Test.make ~name:"most recent put findable" ~count:200
    QCheck.(pair (int_range 1 16) (small_list small_nat))
    (fun (cap, lbns) ->
      let c = Bcache.create ~cap ~block_size:block in
      List.for_all
        (fun lbn ->
          put_clean c (k 1 lbn) (Char.chr (65 + (lbn mod 26)));
          found c (k 1 lbn) = Some (String.make block (Char.chr (65 + (lbn mod 26)))))
        lbns)

(* --- unlink --- *)

(* Three files on a full cache, each with clean entries and two dirty
   ones; unlinking the middle file takes exactly its entries and gives
   back exactly their buffers. *)
let test_drop_inum () =
  let per_file = 4 in
  let c = Bcache.create ~cap:(3 * per_file) ~block_size:block in
  let fill ch =
    let b = Bcache.take c in
    Bytes.fill (Util.Bufpool.bytes b) 0 block ch;
    b
  in
  let content inum lbn = Char.chr (97 + (inum * 7) + lbn) in
  let files = [ 1; 2; 3 ] in
  List.iter
    (fun inum ->
      for lbn = 0 to per_file - 1 do
        Bcache.put_clean_buf c (k inum lbn) ~addr:lbn ~crc:(-1) (fill (content inum lbn))
      done;
      Bcache.put_dirty_buf c (k inum per_file) ~old_addr:(-1) ~crc:(-1)
        (fill (content inum per_file));
      put_dirty c (k inum (per_file + 1)) (content inum (per_file + 1)))
    files;
  check Alcotest.int "cache full" (3 * per_file) (Bcache.clean_count c);
  let free () = Util.Bufpool.free_count (Bcache.pool c) in
  let free_before = free () in
  Bcache.drop_inum c 2;
  check Alcotest.int "buffers back: four clean, two dirty" (free_before + per_file + 2)
    (free ());
  for lbn = 0 to per_file + 1 do
    check Alcotest.bool (Printf.sprintf "(2, %d) gone" lbn) false (mem c (k 2 lbn))
  done;
  check Alcotest.int "clean left" (2 * per_file) (Bcache.clean_count c);
  check Alcotest.int "dirty left" 4 (Bcache.dirty_count c);
  List.iter
    (fun inum ->
      for lbn = 0 to per_file + 1 do
        check
          Alcotest.(option string)
          (Printf.sprintf "(%d, %d) untouched" inum lbn)
          (Some (String.make block (content inum lbn)))
          (found c (k inum lbn))
      done)
    [ 1; 3 ];
  Bcache.drop_inum c 2;
  Bcache.drop_inum c 1_000_000;
  check Alcotest.int "uncached files drop nothing" (free_before + per_file + 2) (free ())

(* --- model --- *)

type op =
  | Put_clean of Bcache.key * char
  | Put_dirty of Bcache.key * char
  | Find of Bcache.key
  | Mark_dirty of Bcache.key
  | Mark_flushed of Bcache.key
  | Drop of Bcache.key
  | Drop_inum of int
  | Invalidate_clean

let universe =
  List.concat_map
    (fun i -> List.map (Bcache.key i) Bkey.[ Data 0; Data 1; Data 2; L1 0 ])
    [ 1; 2; 3 ]

let show_key key = show_block (Bcache.inum key, Bcache.bkey key)

let show_op = function
  | Put_clean (k, c) -> Printf.sprintf "put_clean %s %C" (show_key k) c
  | Put_dirty (k, c) -> Printf.sprintf "put_dirty %s %C" (show_key k) c
  | Find k -> "find " ^ show_key k
  | Mark_dirty k -> "mark_dirty " ^ show_key k
  | Mark_flushed k -> "mark_flushed " ^ show_key k
  | Drop k -> "drop " ^ show_key k
  | Drop_inum i -> Printf.sprintf "drop_inum %d" i
  | Invalidate_clean -> "invalidate_clean"

let gen_op =
  let open QCheck.Gen in
  let key = oneofl universe and content = map Char.chr (int_range 97 122) in
  frequency
    [
      (4, map2 (fun k c -> Put_clean (k, c)) key content);
      (3, map2 (fun k c -> Put_dirty (k, c)) key content);
      (4, map (fun k -> Find k) key);
      (2, map (fun k -> Mark_dirty k) key);
      (3, map (fun k -> Mark_flushed k) key);
      (2, map (fun k -> Drop k) key);
      (1, map (fun i -> Drop_inum i) (int_range 1 3));
      (1, return Invalidate_clean);
    ]

(* A plain-list LRU: [clean] is most recently used first, and a clean
   insertion at capacity evicts the last element; dirty entries sit
   outside it. *)
type model = {
  cap : int;
  mutable clean : (Bcache.key * char) list;
  dirty : (Bcache.key, char) Hashtbl.t;
}

let model_insert_clean m key c =
  let rest = List.remove_assoc key m.clean in
  let rest =
    if List.length rest = List.length m.clean && List.length rest >= m.cap then
      List.filteri (fun i _ -> i < List.length rest - 1) rest
    else rest
  in
  m.clean <- (key, c) :: rest

let model_find m key =
  match Hashtbl.find_opt m.dirty key with
  | Some c -> Some c
  | None -> (
      match List.assoc_opt key m.clean with
      | Some c ->
          m.clean <- (key, c) :: List.remove_assoc key m.clean;
          Some c
      | None -> None)

let raises f = match f () with () -> false | exception Invalid_argument _ -> true

(* Applies [op] to the cache and the model; false when they disagree on
   the operation's result. *)
let apply cache m op =
  match op with
  | Put_clean (key, c) ->
      if Hashtbl.mem m.dirty key then raises (fun () -> put_clean cache key c)
      else begin
        put_clean cache key c;
        model_insert_clean m key c;
        true
      end
  | Put_dirty (key, c) ->
      put_dirty cache key c;
      m.clean <- List.remove_assoc key m.clean;
      Hashtbl.replace m.dirty key c;
      true
  | Find key ->
      found cache key = Option.map (String.make block) (model_find m key)
  | Mark_dirty key -> (
      if Hashtbl.mem m.dirty key then (Bcache.mark_dirty cache key; true)
      else
        match List.assoc_opt key m.clean with
        | Some c ->
            Bcache.mark_dirty cache key;
            m.clean <- List.remove_assoc key m.clean;
            Hashtbl.replace m.dirty key c;
            true
        | None -> raises (fun () -> Bcache.mark_dirty cache key))
  | Mark_flushed key -> (
      match Hashtbl.find_opt m.dirty key with
      | Some c ->
          Bcache.mark_flushed cache key ~addr:9;
          Hashtbl.remove m.dirty key;
          model_insert_clean m key c;
          true
      | None -> raises (fun () -> Bcache.mark_flushed cache key ~addr:9))
  | Drop key ->
      Bcache.drop cache key;
      m.clean <- List.remove_assoc key m.clean;
      Hashtbl.remove m.dirty key;
      true
  | Drop_inum i ->
      Bcache.drop_inum cache i;
      m.clean <- List.filter (fun (key, _) -> Bcache.inum key <> i) m.clean;
      Hashtbl.filter_map_inplace
        (fun key c -> if Bcache.inum key = i then None else Some c)
        m.dirty;
      true
  | Invalidate_clean ->
      Bcache.invalidate_clean cache;
      m.clean <- [];
      true

let agrees cache m =
  Bcache.clean_count cache = List.length m.clean
  && Bcache.dirty_count cache = Hashtbl.length m.dirty
  && List.for_all
       (fun key ->
         mem cache key = (Hashtbl.mem m.dirty key || List.mem_assoc key m.clean)
         && Bcache.is_dirty cache key = Hashtbl.mem m.dirty key)
       universe

let prop_model =
  QCheck.Test.make ~name:"cache agrees with a list LRU" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair int (list show_op))
       QCheck.Gen.(pair (int_range 1 4) (list_size (int_bound 120) gen_op)))
    (fun (cap, ops) ->
      let cache = Bcache.create ~cap ~block_size:block in
      let m = { cap; clean = []; dirty = Hashtbl.create 8 } in
      List.for_all (fun op -> apply cache m op && agrees cache m) ops)

let suite =
  [
    ( "bcache.keys",
      [
        Alcotest.test_case "edges round-trip" `Quick test_key_edges;
        QCheck_alcotest.to_alcotest prop_key_order;
      ] );
    ( "bcache.lru",
      [
        Alcotest.test_case "basic eviction" `Quick test_basic_eviction;
        Alcotest.test_case "eviction releases the entry" `Quick test_eviction_releases;
        Alcotest.test_case "replace" `Quick test_replace;
        Alcotest.test_case "lookups do not promote" `Quick test_lookups_no_promote;
        Alcotest.test_case "find allocates nothing" `Quick test_find_allocates_nothing;
        Alcotest.test_case "eviction order" `Quick test_eviction_order;
        Alcotest.test_case "drop and invalidate_clean" `Quick test_drop_invalidate;
        QCheck_alcotest.to_alcotest prop_clean_bounded;
        QCheck_alcotest.to_alcotest prop_last_put_found;
        Alcotest.test_case "unlink one file of three" `Quick test_drop_inum;
        QCheck_alcotest.to_alcotest prop_model;
      ] );
  ]
