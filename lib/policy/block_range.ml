type range = { lo : int; hi : int; last_access : float; last_write : float }

type t = { table : (int, range list) Hashtbl.t; max_records : int }

let create ?(max_records_per_file = 64) () =
  { table = Hashtbl.create 32; max_records = max_records_per_file }

(* Insert an access, splitting overlapped ranges so untouched spans keep
   their old timestamps, then merge adjacent ranges whose timestamps are
   close (keeps sequential whole-file access at one record). *)
let merge_epsilon = 1.0

let observe t ~inum ~lbn_lo ~lbn_hi ~write ~now =
  if lbn_lo > lbn_hi then invalid_arg "Block_range.observe";
  let old = Option.value ~default:[] (Hashtbl.find_opt t.table inum) in
  let fresh =
    { lo = lbn_lo; hi = lbn_hi; last_access = now; last_write = (if write then now else 0.0) }
  in
  (* carve the old ranges around the new one *)
  let rec carve acc = function
    | [] -> List.rev acc
    | r :: rest ->
        if r.hi < lbn_lo || r.lo > lbn_hi then carve (r :: acc) rest
        else begin
          let acc = if r.lo < lbn_lo then { r with hi = lbn_lo - 1 } :: acc else acc in
          let acc = if r.hi > lbn_hi then { r with lo = lbn_hi + 1 } :: acc else acc in
          let fresh_write = Float.max fresh.last_write r.last_write in
          ignore fresh_write;
          carve acc rest
        end
  in
  let carved = carve [] old in
  let all = List.sort (fun a b -> compare a.lo b.lo) (fresh :: carved) in
  (* coalesce neighbours with near-identical access times *)
  let rec coalesce = function
    | a :: b :: rest
      when a.hi + 1 = b.lo
           && Float.abs (a.last_access -. b.last_access) <= merge_epsilon
           && (a.last_write > 0.0) = (b.last_write > 0.0) ->
        coalesce
          ({
             lo = a.lo;
             hi = b.hi;
             last_access = Float.max a.last_access b.last_access;
             last_write = Float.max a.last_write b.last_write;
           }
          :: rest)
    | a :: rest -> a :: coalesce rest
    | [] -> []
  in
  let merged = coalesce all in
  (* enforce the bookkeeping cap by merging the closest neighbours *)
  let rec enforce l =
    if List.length l <= t.max_records then l
    else begin
      (* merge the pair with the smallest gap *)
      let arr = Array.of_list l in
      let best = ref 0 in
      for i = 0 to Array.length arr - 2 do
        if arr.(i + 1).lo - arr.(i).hi < arr.(!best + 1).lo - arr.(!best).hi then best := i
      done;
      let a = arr.(!best) and b = arr.(!best + 1) in
      let merged_pair =
        {
          lo = a.lo;
          hi = b.hi;
          last_access = Float.max a.last_access b.last_access;
          last_write = Float.max a.last_write b.last_write;
        }
      in
      let rest =
        Array.to_list arr |> List.filteri (fun i _ -> i <> !best && i <> !best + 1)
      in
      enforce (List.sort (fun a b -> compare a.lo b.lo) (merged_pair :: rest))
    end
  in
  Hashtbl.replace t.table inum (enforce merged)

let ranges t inum = Option.value ~default:[] (Hashtbl.find_opt t.table inum)

let cold_blocks t ~now ~older_than =
  Hashtbl.fold
    (fun inum rs acc ->
      List.fold_left
        (fun acc r ->
          if now -. r.last_access >= older_than then
            List.rev_append
              (List.init (r.hi - r.lo + 1) (fun i -> (inum, Lfs.Bkey.Data (r.lo + i))))
              acc
          else acc)
        acc rs)
    t.table []

let forget t inum = Hashtbl.remove t.table inum

let attach t ~block_size hl =
  Highlight.State.subscribe (Highlight.Hl.state hl) (function
    | Highlight.State.File_access { inum; off; len; write } when len > 0 ->
        observe t ~inum ~lbn_lo:(off / block_size)
          ~lbn_hi:((off + len - 1) / block_size)
          ~write ~now:(Sim.Engine.now (Highlight.Hl.engine hl))
    | _ -> ())
