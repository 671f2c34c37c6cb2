open Highlight

type t = {
  st : State.t;
  window : float;
  min_group : int;
  mutable current : (float * int list) option;  (* last fetch time, members (newest first) *)
  mutable ready : int list list;
}

let create ?(window = 300.0) ?(min_group = 3) st =
  { st; window; min_group; current = None; ready = [] }

let close_current t =
  match t.current with
  | Some (_, members) when List.length members >= t.min_group ->
      t.ready <- List.rev members :: t.ready;
      t.current <- None
  | _ -> t.current <- None

let observe t tindex =
  let now = Sim.Engine.now t.st.State.engine in
  match t.current with
  | Some (last, members) when now -. last <= t.window ->
      if not (List.mem tindex members) then t.current <- Some (now, tindex :: members)
      else t.current <- Some (now, members)
  | _ ->
      close_current t;
      t.current <- Some (now, [ tindex ])

let install t =
  State.subscribe t.st (function State.Fetch_landed tindex -> observe t tindex | _ -> ())

let pending_groups t =
  (* a quiet period closes the running group; a running group that is
     already big enough is offered too *)
  (match t.current with
  | Some (last, _) when Sim.Engine.now t.st.State.engine -. last > t.window -> close_current t
  | _ -> ());
  let current =
    match t.current with
    | Some (_, members) when List.length members >= t.min_group -> [ List.rev members ]
    | _ -> []
  in
  List.rev t.ready @ current

let run_once t =
  let groups = pending_groups t in
  t.ready <- [];
  (match t.current with
  | Some (_, members) when List.length members >= t.min_group -> t.current <- None
  | _ -> ());
  List.concat_map
    (fun group ->
      (* gather every live block of the group and stage them together;
         sources read from the cache lines the fetches just filled *)
      let pairs =
        List.concat_map (fun tindex -> fst (Tertiary_cleaner.live_contents t.st tindex)) group
      in
      if pairs = [] then []
      else Migrator.migrate_blocks t.st ~allow_tertiary:true pairs)
    groups

let replicate st tindex =
  let aspace = st.State.aspace in
  let home_vol = fst (Highlight.Addr_space.vol_seg_of_tindex aspace tindex) in
  let vol0, seg0 = Highlight.Addr_space.vol_seg_of_tindex aspace tindex in
  (* the copy moves page references, through a segment image *)
  let image = State.take_image ~moving:true st in
  Fun.protect ~finally:(fun () -> State.give_image ~moving:true st image) @@ fun () ->
  let chunk ~off:_ ~blocks:_ = () in
  Footprint.read_seg_stream_into st.State.fp ~vol:vol0 ~seg:seg0 ~dst:image chunk;
  (* allocate a slot on any other volume *)
  st.State.avoid_volume <- Some home_vol;
  let result =
    Fun.protect ~finally:(fun () -> st.State.avoid_volume <- None) @@ fun () ->
    match State.next_tseg st with
    | exception State.Tertiary_full -> None
    | replica ->
        let vol, seg = Highlight.Addr_space.vol_seg_of_tindex aspace replica in
        (match
           Footprint.write_seg_stream_from st.State.fp ~vol ~seg ~src:image ~src_blk:0 chunk
         with
        | Footprint.Written ->
            (* replicas carry no live accounting: mark the slot Dirty so
               the allocator skips it, but leave live bytes at zero *)
            Hashtbl.replace st.State.replicas tindex
              (replica
              :: Option.value ~default:[] (Hashtbl.find_opt st.State.replicas tindex));
            Some replica
        | Footprint.End_of_medium ->
            Lfs.Segusage.set_state st.State.tseg replica Lfs.Segusage.Clean;
            None)
  in
  result
