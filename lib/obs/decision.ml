type site =
  | Automigrate
  | Stp_rank
  | Namespace_rank
  | Clean_victims
  | Tclean_volume
  | Cache_evict

let site_name = function
  | Automigrate -> "automigrate"
  | Stp_rank -> "stp_rank"
  | Namespace_rank -> "namespace_rank"
  | Clean_victims -> "clean_victims"
  | Tclean_volume -> "tclean_volume"
  | Cache_evict -> "cache_evict"

type features = { idle : float; size : int; util : float; temp : float; age : float }

let no_features = { idle = 0.0; size = 0; util = 0.0; temp = 0.0; age = 0.0 }

type candidate = {
  cid : int;
  label : string;
  members : int list;
  feats : features;
  cscore : float;
}

let candidate ?(label = "") ?(members = []) ?(feats = no_features) ?(score = 0.0) cid =
  { cid; label; members; feats; cscore = score }

type record = {
  seq : int;
  time : float;
  site : site;
  policy : string;
  budget : int;
  chosen : candidate list;
  rejected : candidate list;
}

type evict_stat = { mutable es_count : int; mutable es_regrets : int }

type clean_stat = {
  mutable cs_passes : int;
  mutable cs_segments : int;
  mutable cs_copied : int;
  mutable cs_reclaimed : int;
}

type t = {
  cap : int;
  max_rejected : int;
  window : float;
  ring : record Queue.t;
  mutable next_seq : int;
  mutable n_dropped : int;
  file_heat : Heat.t;
  seg_heat : Heat.t;
  (* closed-loop state: what was demoted/evicted recently, keyed by
     tindex (segments) or inum (files); entries are consumed by the
     first access so each demotion scores at most one mistake *)
  demoted_seg : (int, float) Hashtbl.t;
  demoted_file : (int, float * int) Hashtbl.t;
  evicted_seg : (int, float * string) Hashtbl.t;
  mutable seg_demotions : int;
  mutable seg_mistakes : int;
  mutable file_demotions : int;
  mutable file_recalls : int;
  mutable recalled_bytes : int;
  evict_stats : (string, evict_stat) Hashtbl.t;
  clean_stats : (string, clean_stat) Hashtbl.t;
  mutable sinks : (record -> unit) list;
  mutable file_access_sinks : (now:float -> int -> unit) list;
  mutable seg_access_sinks : (now:float -> int -> unit) list;
  metrics : Sim.Metrics.t option;
}

(* [on] mirrors [current]: hot paths test one immediate bool, never an
   option match. *)
let on = ref false
let current : t option ref = ref None

let install ?(cap = 4096) ?(max_rejected = 32) ?(window = 1800.0) ?(half_life = 3600.0)
    ?metrics () =
  if cap <= 0 || max_rejected < 0 || window <= 0.0 then invalid_arg "Decision.install";
  current :=
    Some
      {
        cap;
        max_rejected;
        window;
        ring = Queue.create ();
        next_seq = 0;
        n_dropped = 0;
        file_heat = Heat.create ~half_life ();
        seg_heat = Heat.create ~half_life ();
        demoted_seg = Hashtbl.create 64;
        demoted_file = Hashtbl.create 64;
        evicted_seg = Hashtbl.create 64;
        seg_demotions = 0;
        seg_mistakes = 0;
        file_demotions = 0;
        file_recalls = 0;
        recalled_bytes = 0;
        evict_stats = Hashtbl.create 4;
        clean_stats = Hashtbl.create 4;
        sinks = [];
        file_access_sinks = [];
        seg_access_sinks = [];
        metrics;
      };
  on := true

let uninstall () =
  current := None;
  on := false

let enabled () = !on
let mistake_window () = match !current with Some s -> s.window | None -> 0.0

let bump ?(by = 1) s name =
  match s.metrics with
  | Some m -> Sim.Metrics.incr ~by (Sim.Metrics.counter m name)
  | None -> ()

let count_event name = match !current with Some s -> bump s name | None -> ()

let add_sink f =
  match !current with Some s -> s.sinks <- s.sinks @ [ f ] | None -> ()

let add_file_access_sink f =
  match !current with Some s -> s.file_access_sinks <- s.file_access_sinks @ [ f ] | None -> ()

let add_segment_access_sink f =
  match !current with Some s -> s.seg_access_sinks <- s.seg_access_sinks @ [ f ] | None -> ()

let take n l =
  let rec go acc n = function
    | x :: rest when n > 0 -> go (x :: acc) (n - 1) rest
    | _ -> List.rev acc
  in
  go [] n l

let emit ~now ~site ~policy ?(budget = 0) ~chosen ~rejected () =
  match !current with
  | None -> ()
  | Some s ->
      let rejected = take s.max_rejected rejected in
      let r = { seq = s.next_seq; time = now; site; policy; budget; chosen; rejected } in
      s.next_seq <- s.next_seq + 1;
      Queue.push r s.ring;
      while Queue.length s.ring > s.cap do
        ignore (Queue.pop s.ring);
        s.n_dropped <- s.n_dropped + 1
      done;
      bump s "obs.decisions";
      List.iter (fun f -> f r) s.sinks

(* ---------- heat ---------- *)

let touch_file ~now ?(write = false) inum =
  match !current with
  | None -> ()
  | Some s ->
      Heat.touch s.file_heat ~now ~weight:(if write then 2.0 else 1.0) inum;
      (match Hashtbl.find_opt s.demoted_file inum with
      | Some (t0, bytes) ->
          Hashtbl.remove s.demoted_file inum;
          if now -. t0 <= s.window then begin
            s.file_recalls <- s.file_recalls + 1;
            s.recalled_bytes <- s.recalled_bytes + bytes;
            bump s "obs.file_recalls"
          end
      | None -> ());
      List.iter (fun f -> f ~now inum) s.file_access_sinks

let file_temp ~now inum =
  match !current with None -> 0.0 | Some s -> Heat.get s.file_heat ~now inum

let segment_temp ~now tindex =
  match !current with None -> 0.0 | Some s -> Heat.get s.seg_heat ~now tindex

(* ---------- closed-loop notes ---------- *)

let evict_stat s policy =
  match Hashtbl.find_opt s.evict_stats policy with
  | Some es -> es
  | None ->
      let es = { es_count = 0; es_regrets = 0 } in
      Hashtbl.replace s.evict_stats policy es;
      es

let note_segment_access ~now ~miss tindex =
  match !current with
  | None -> ()
  | Some s ->
      Heat.touch s.seg_heat ~now tindex;
      if miss then begin
        (match Hashtbl.find_opt s.demoted_seg tindex with
        | Some t0 ->
            Hashtbl.remove s.demoted_seg tindex;
            if now -. t0 <= s.window then begin
              s.seg_mistakes <- s.seg_mistakes + 1;
              bump s "obs.migration_mistakes"
            end
        | None -> ());
        match Hashtbl.find_opt s.evicted_seg tindex with
        | Some (t0, policy) ->
            Hashtbl.remove s.evicted_seg tindex;
            if now -. t0 <= s.window then begin
              let es = evict_stat s policy in
              es.es_regrets <- es.es_regrets + 1;
              bump s "obs.eviction_regrets"
            end
        | None -> ()
      end;
      List.iter (fun f -> f ~now tindex) s.seg_access_sinks

let note_segment_demoted ~now tindex =
  match !current with
  | None -> ()
  | Some s ->
      s.seg_demotions <- s.seg_demotions + 1;
      Hashtbl.replace s.demoted_seg tindex now;
      bump s "obs.segment_demotions"

let note_file_demoted ~now ~inum ~bytes =
  match !current with
  | None -> ()
  | Some s ->
      s.file_demotions <- s.file_demotions + 1;
      Hashtbl.replace s.demoted_file inum (now, bytes);
      bump s "obs.file_demotions"

let note_evicted ~now ~policy tindex =
  match !current with
  | None -> ()
  | Some s ->
      let es = evict_stat s policy in
      es.es_count <- es.es_count + 1;
      Hashtbl.replace s.evicted_seg tindex (now, policy);
      bump s "obs.evictions"

let note_cleaned ~policy ~segments ~bytes_moved ~bytes_reclaimed =
  match !current with
  | None -> ()
  | Some s ->
      let cs =
        match Hashtbl.find_opt s.clean_stats policy with
        | Some cs -> cs
        | None ->
            let cs = { cs_passes = 0; cs_segments = 0; cs_copied = 0; cs_reclaimed = 0 } in
            Hashtbl.replace s.clean_stats policy cs;
            cs
      in
      cs.cs_passes <- cs.cs_passes + 1;
      cs.cs_segments <- cs.cs_segments + segments;
      cs.cs_copied <- cs.cs_copied + bytes_moved;
      cs.cs_reclaimed <- cs.cs_reclaimed + bytes_reclaimed;
      bump s ~by:bytes_moved "obs.cleaner_copied_bytes"

(* ---------- reading ---------- *)

type evict_sli = { ev_policy : string; ev_evictions : int; ev_regrets : int }

type clean_sli = {
  cl_policy : string;
  cl_passes : int;
  cl_segments : int;
  cl_copied_bytes : int;
  cl_reclaimed_bytes : int;
  cl_write_amp : float;
}

type sli = {
  decisions : int;
  dropped : int;
  seg_demotions : int;
  seg_mistakes : int;
  mistake_rate : float;
  file_demotions : int;
  file_recalls : int;
  recalled_bytes : int;
  evictions : int;
  regrets : int;
  regret_rate : float;
  by_evict_policy : evict_sli list;
  by_clean_policy : clean_sli list;
}

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let sli () =
  match !current with
  | None -> None
  | Some s ->
      let by_evict_policy =
        Hashtbl.fold
          (fun p es acc ->
            { ev_policy = p; ev_evictions = es.es_count; ev_regrets = es.es_regrets } :: acc)
          s.evict_stats []
        |> List.sort (fun a b -> compare a.ev_policy b.ev_policy)
      in
      let by_clean_policy =
        Hashtbl.fold
          (fun p cs acc ->
            {
              cl_policy = p;
              cl_passes = cs.cs_passes;
              cl_segments = cs.cs_segments;
              cl_copied_bytes = cs.cs_copied;
              cl_reclaimed_bytes = cs.cs_reclaimed;
              cl_write_amp =
                (if cs.cs_reclaimed > 0 then
                   float_of_int cs.cs_copied /. float_of_int cs.cs_reclaimed
                 else 0.0);
            }
            :: acc)
          s.clean_stats []
        |> List.sort (fun a b -> compare a.cl_policy b.cl_policy)
      in
      let evictions = List.fold_left (fun a e -> a + e.ev_evictions) 0 by_evict_policy in
      let regrets = List.fold_left (fun a e -> a + e.ev_regrets) 0 by_evict_policy in
      Some
        {
          decisions = s.next_seq;
          dropped = s.n_dropped;
          seg_demotions = s.seg_demotions;
          seg_mistakes = s.seg_mistakes;
          mistake_rate = rate s.seg_mistakes s.seg_demotions;
          file_demotions = s.file_demotions;
          file_recalls = s.file_recalls;
          recalled_bytes = s.recalled_bytes;
          evictions;
          regrets;
          regret_rate = rate regrets evictions;
          by_evict_policy;
          by_clean_policy;
        }

let records () =
  match !current with
  | None -> []
  | Some s -> List.rev (Queue.fold (fun acc r -> r :: acc) [] s.ring)

(* NDJSON: one compact object per record. %S escaping is JSON-compatible
   for the plain paths and policy ids used as labels here. *)
let bprint_candidate buf c =
  Printf.bprintf buf "{\"id\":%d" c.cid;
  if c.label <> "" then Printf.bprintf buf ",\"label\":%S" c.label;
  (match c.members with
  | [] -> ()
  | ms ->
      Buffer.add_string buf ",\"members\":[";
      List.iteri (fun i m -> Printf.bprintf buf "%s%d" (if i > 0 then "," else "") m) ms;
      Buffer.add_char buf ']');
  Printf.bprintf buf ",\"score\":%.6g,\"idle\":%.6g,\"size\":%d,\"util\":%.6g,\"temp\":%.6g,\"age\":%.6g}"
    c.cscore c.feats.idle c.feats.size c.feats.util c.feats.temp c.feats.age

let bprint_record buf r =
  Printf.bprintf buf "{\"seq\":%d,\"t\":%.6g,\"site\":%S,\"policy\":%S,\"budget\":%d,\"chosen\":["
    r.seq r.time (site_name r.site) r.policy r.budget;
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      bprint_candidate buf c)
    r.chosen;
  Buffer.add_string buf "],\"rejected\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      bprint_candidate buf c)
    r.rejected;
  Buffer.add_string buf "]}\n"

let to_ndjson () =
  let buf = Buffer.create 4096 in
  List.iter (bprint_record buf) (records ());
  Buffer.contents buf
