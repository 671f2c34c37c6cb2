open State

let now st = Sim.Engine.now st.engine

let eject st line =
  if line.Seg_cache.pins > 0 then invalid_arg "Evict.eject: line pinned";
  (match line.Seg_cache.state with
  | Seg_cache.Resident | Seg_cache.Staged_clean | Seg_cache.Partial -> ()
  | Seg_cache.Fetching | Seg_cache.Staging ->
      invalid_arg "Evict.eject: line not evictable");
  Hl_log.Log.debug (fun m ->
      m "eject cache line: tseg %d (disk seg %d)" line.Seg_cache.tindex line.Seg_cache.disk_seg);
  score_prefetch st line `Evicted;
  Seg_cache.remove st.cache line;
  (* nothing serves from an evicted line's image any more *)
  release_image st line;
  Sim.Metrics.incr (Sim.Metrics.counter st.metrics "cache.evictions");
  Sim.Trace.instant ~track:"service" ~cat:"cache" "evict"
    ~args:[ ("tindex", string_of_int line.Seg_cache.tindex) ];
  if line.Seg_cache.disk_seg >= 0 then
    (* fires the segments_freed hook, waking allocation waiters *)
    Lfs.Fs.release_segment (fs st) line.Seg_cache.disk_seg

(* Victim selection with the decision observatory looking over its
   shoulder: every policy-chosen eviction (as opposed to a deliberate
   eject, e.g. [Hl.eject_tertiary_copies]) emits a Cache_evict record —
   the victim plus the candidates passed over, with idle/worthiness/
   heat features — and registers for the eviction-regret SLI. *)
let choose_victim st =
  match Seg_cache.choose_victim st.cache with
  | None -> None
  | Some victim ->
      if Obs.Decision.enabled () then begin
        let now = now st in
        let pol = Seg_cache.policy_name st.cache in
        let cand (l : Seg_cache.line) =
          Obs.Decision.candidate l.Seg_cache.tindex
            ~feats:
              {
                Obs.Decision.idle = Float.max 0.0 (now -. l.Seg_cache.last_use);
                size = 0;
                (* util doubles as the re-reference (worthiness) bit *)
                util = (if l.Seg_cache.worthy then 1.0 else 0.0);
                temp = Obs.Decision.segment_temp ~now l.Seg_cache.tindex;
                age = Float.max 0.0 (now -. l.Seg_cache.fetched_at);
              }
        in
        let rejected =
          Seg_cache.lines st.cache
          |> List.filter (fun l -> l != victim && Seg_cache.evictable l)
          |> List.map cand
        in
        Obs.Decision.emit ~now ~site:Obs.Decision.Cache_evict ~policy:pol
          ~chosen:[ cand victim ] ~rejected ();
        Obs.Decision.note_evicted ~now ~policy:pol victim.Seg_cache.tindex
      end;
      Some victim

(* One allocation attempt: evict past the cap or a victim if needed,
   but never wait. *)
let try_allocate st =
  let fsys = fs st in
  let cap = Seg_cache.max_lines st.cache in
  if Seg_cache.length st.cache > cap then
    Option.iter (eject st) (choose_victim st);
  match Lfs.Fs.alloc_clean_segment fsys with
  | Some seg -> Some seg
  | None -> (
      match choose_victim st with
      | Some victim ->
          eject st victim;
          Lfs.Fs.alloc_clean_segment fsys
      | None -> None)

(* Obtain a disk segment to serve as a cache line, ejecting victims when
   the clean pool or the static cache cap is exhausted. When everything
   is pinned or in flight, sleep on [cache_progress] — signalled by
   evictions, pin releases, segment frees and transfer completions —
   instead of polling the simulation clock. *)
let allocate st =
  let fsys = fs st in
  let cap = Seg_cache.max_lines st.cache in
  let rec go waits =
    if waits > 100000 then failwith "Evict: no cache line obtainable";
    if Seg_cache.length st.cache > cap then begin
      match choose_victim st with
      | Some victim ->
          eject st victim;
          go waits
      | None ->
          Sim.Condvar.wait st.cache_progress;
          go (waits + 1)
    end
    else
      match Lfs.Fs.alloc_clean_segment fsys with
      | Some seg -> seg
      | None -> (
          match choose_victim st with
          | Some victim ->
              eject st victim;
              go waits
          | None ->
              (* everything pinned or staging: wait for progress *)
              Sim.Condvar.wait st.cache_progress;
              go (waits + 1))
  in
  go 0
