type state = Fetching | Resident | Staging | Staged_clean | Partial

type line = {
  mutable tindex : int;
  mutable disk_seg : int;
  mutable state : state;
  mutable pins : int;
  mutable last_use : float;
  mutable fetched_at : float;
  mutable worthy : bool;
  mutable image : Device.Blockstore.t option;
  mutable valid_blocks : int;
  mutable media_blocks : int;
  mutable prefetched : bool;
  mutable idle_hint : bool;
  ready : Sim.Condvar.t;
  mutable span_id : int;
  mutable ledger : Sim.Ledger.t;
  mutable failed : string option;
}

type policy = Lru | Random_evict | Least_worthy

type t = {
  table : (int, line) Hashtbl.t;
  pol : policy;
  rng : Util.Rng.t;
  max : int;
  lru : (float * line) Util.Heap.t;
      (* lazy-deletion min-heap over (last_use snapshot, line): pushed
         on insert and touch, so a line appears once per use. An entry
         is current only while its snapshot still equals the line's
         last_use and the line is still in the directory — stale
         entries are discarded as they surface. Keeps Lru
         [choose_victim] amortised O(log n) instead of a full scan. *)
  freed : Sim.Condvar.t;
}

let create ?(policy = Lru) ?(seed = 1993) ~max_lines () =
  if max_lines <= 0 then invalid_arg "Seg_cache.create";
  {
    table = Hashtbl.create 64;
    pol = policy;
    rng = Util.Rng.create seed;
    max = max_lines;
    (* timestamps are floats: Float.compare, not polymorphic compare,
       and the lazy-deletion heap holds ~2 entries per line *)
    lru =
      Util.Heap.create ~capacity:(2 * max_lines)
        ~cmp:(fun (a, _) (b, _) -> Float.compare a b)
        ();
    freed = Sim.Condvar.create ();
  }

let freed t = t.freed

let policy t = t.pol

let policy_name t =
  match t.pol with
  | Lru -> "lru"
  | Random_evict -> "random"
  | Least_worthy -> "least_worthy"
let max_lines t = t.max
let length t = Hashtbl.length t.table
let find t tindex = Hashtbl.find_opt t.table tindex

(* Entries whose snapshot no longer matches (superseded by a later
   touch, or the line left the directory) are dead weight; rebuild once
   they dominate so the heap stays O(live lines). *)
let maybe_compact t =
  if Util.Heap.length t.lru > 4 * (Hashtbl.length t.table + 1) then begin
    Util.Heap.clear t.lru;
    Hashtbl.iter (fun _ l -> Util.Heap.push t.lru (l.last_use, l)) t.table
  end

let insert t ~tindex ~disk_seg ~state ~now =
  if Hashtbl.mem t.table tindex then invalid_arg "Seg_cache.insert: already cached";
  let line =
    {
      tindex;
      disk_seg;
      state;
      pins = 0;
      last_use = now;
      fetched_at = now;
      worthy = false;
      image = None;
      valid_blocks = 0;
      media_blocks = 0;
      prefetched = false;
      idle_hint = false;
      ready = Sim.Condvar.create ();
      span_id = -1;
      ledger = Sim.Ledger.none;
      failed = None;
    }
  in
  Hashtbl.replace t.table tindex line;
  Util.Heap.push t.lru (now, line);
  maybe_compact t;
  line

let touch t line ~now =
  if line.last_use > line.fetched_at then line.worthy <- true;
  line.last_use <- now;
  Util.Heap.push t.lru (now, line);
  maybe_compact t

let pin line = line.pins <- line.pins + 1

let unpin t line =
  if line.pins <= 0 then invalid_arg "Seg_cache.unpin: not pinned";
  line.pins <- line.pins - 1;
  if line.pins = 0 then Sim.Condvar.broadcast t.freed

let evictable line =
  line.pins = 0
  && (line.state = Resident || line.state = Staged_clean || line.state = Partial)

(* A heap entry speaks for a line only while its snapshot is current:
   the line is still in the directory under the same identity and
   hasn't been touched since the entry was pushed. *)
let entry_current t (snap, l) =
  (match Hashtbl.find_opt t.table l.tindex with Some l' -> l' == l | None -> false)
  && l.last_use = snap

(* Peek-don't-pop: [choose_victim]'s contract is that the line stays in
   the directory, and callers probe repeatedly without evicting. Stale
   entries are dropped as they surface; entries for live-but-pinned (or
   Staging/Fetching) lines are set aside and re-pushed, since the line
   may become evictable later at the same last_use. *)
let lru_victim t =
  let stash = ref [] in
  let rec go () =
    match Util.Heap.peek t.lru with
    | None -> None
    | Some ((_, l) as entry) ->
        if not (entry_current t entry) then begin
          ignore (Util.Heap.pop t.lru);
          go ()
        end
        else if evictable l then Some l
        else begin
          ignore (Util.Heap.pop t.lru);
          stash := entry :: !stash;
          go ()
        end
  in
  let v = go () in
  List.iter (Util.Heap.push t.lru) !stash;
  v

let choose_victim t =
  match t.pol with
  | Lru -> lru_victim t
  | Random_evict -> (
      let candidates =
        Hashtbl.fold (fun _ l acc -> if evictable l then l :: acc else acc) t.table []
      in
      match candidates with
      | [] -> None
      | _ ->
          let arr = Array.of_list candidates in
          Some arr.(Util.Rng.int t.rng (Array.length arr)))
  | Least_worthy -> (
      let candidates =
        Hashtbl.fold (fun _ l acc -> if evictable l then l :: acc else acc) t.table []
      in
      match candidates with
      | [] -> None
      | _ -> (
          (* lines never re-referenced go first (oldest fetch first);
             otherwise fall back to LRU among the worthy *)
          let unworthy = List.filter (fun l -> not l.worthy) candidates in
          match unworthy with
          | [] ->
              Some
                (List.fold_left
                   (fun best l -> if l.last_use < best.last_use then l else best)
                   (List.hd candidates) (List.tl candidates))
          | u :: us ->
              Some
                (List.fold_left
                   (fun best l -> if l.fetched_at < best.fetched_at then l else best)
                   u us)))

let retag t line tindex =
  if Hashtbl.mem t.table tindex then invalid_arg "Seg_cache.retag: target cached";
  Hashtbl.remove t.table line.tindex;
  line.tindex <- tindex;
  Hashtbl.replace t.table tindex line

let remove t line =
  Hashtbl.remove t.table line.tindex;
  Sim.Condvar.broadcast t.freed
let iter t f = Hashtbl.iter (fun _ l -> f l) t.table
let lines t = Hashtbl.fold (fun _ l acc -> l :: acc) t.table []
