(* In-memory spans recorded around the calls the benchmark makes into
   each layer (and, through {!Devwrap}, the calls the file system makes
   into the disk). A span knows its layer, name, process, host and
   simulated start/end, its parent (the innermost open span of the same
   process) and the request root it belongs to. Self time is the span's
   host time minus that of its children; children are always in the
   parent's process, so a span that suspends in simulated time still
   absorbs the host time of whatever other processes ran meanwhile. *)

type span = {
  id : int;
  layer : string;
  name : string;
  proc : string;
  parent : int;  (** -1 for a root *)
  root : int;
  host0 : float;
  sim0 : float;
  minor0 : float;
  major0 : float;
  mutable host1 : float;
  mutable sim1 : float;
  mutable child_host : float;
  mutable minor : float;
  mutable major : float;
}

type t = {
  engine : Sim.Engine.t;
  mutable spans : span array;
  mutable n : int;
  stacks : (string, span list) Hashtbl.t;  (** open spans per process *)
}

(* Words allocated so far: minor heap, and major heap (direct plus
   promoted). *)
let gc_words () =
  let st = Gc.quick_stat () in
  (st.Gc.minor_words, st.Gc.major_words)

let current : t option ref = ref None

(* Stopped tracers, oldest first, until someone writes them out. *)
let finished : t list ref = ref []

let start engine =
  let t = { engine; spans = [||]; n = 0; stacks = Hashtbl.create 16 } in
  current := Some t;
  t

let stop () =
  Option.iter (fun t -> finished := !finished @ [ t ]) !current;
  current := None

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1

let open_span t ~layer name =
  let proc = Sim.Engine.current_name t.engine in
  let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks proc) in
  let parent, root = match stack with p :: _ -> (p.id, p.root) | [] -> (-1, t.n) in
  let minor, major = gc_words () in
  let s =
    {
      id = t.n;
      layer;
      name;
      proc;
      parent;
      root;
      host0 = Metric.now ();
      sim0 = Sim.Engine.now t.engine;
      minor0 = minor;
      major0 = major;
      host1 = nan;
      sim1 = nan;
      child_host = 0.0;
      minor = 0.0;
      major = 0.0;
    }
  in
  push t s;
  Hashtbl.replace t.stacks proc (s :: stack);
  s

let close_span t s =
  let minor, major = gc_words () in
  s.host1 <- Metric.now ();
  s.sim1 <- Sim.Engine.now t.engine;
  s.minor <- minor -. s.minor0;
  s.major <- major -. s.major0;
  match Hashtbl.find_opt t.stacks s.proc with
  | Some (top :: rest) when top == s -> (
      Hashtbl.replace t.stacks s.proc rest;
      match rest with p :: _ -> p.child_host <- p.child_host +. (s.host1 -. s.host0) | [] -> ())
  | _ -> failwith ("Span: unbalanced close of " ^ s.layer ^ "." ^ s.name)

(* [with_ ~layer name f] runs [f] inside a span when tracing is on, and
   is a plain call otherwise. *)
let with_ ~layer name f =
  match !current with
  | None -> f ()
  | Some t -> (
      let s = open_span t ~layer name in
      match f () with
      | v ->
          close_span t s;
          v
      | exception e ->
          close_span t s;
          raise e)

type agg = {
  calls : int;
  host_s : float;
  self_s : float;
  sim_s : float;
  minor_words : float;
  major_words : float;
}

let zero = { calls = 0; host_s = 0.0; self_s = 0.0; sim_s = 0.0; minor_words = 0.0; major_words = 0.0 }

(* Totals over the closed spans named [layer].[name]. *)
let aggregate t ~layer name =
  let acc = ref zero in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.layer = layer && s.name = name && not (Float.is_nan s.host1) then begin
      let a = !acc in
      let host = s.host1 -. s.host0 in
      acc :=
        {
          calls = a.calls + 1;
          host_s = a.host_s +. host;
          self_s = a.self_s +. host -. s.child_host;
          sim_s = a.sim_s +. s.sim1 -. s.sim0;
          minor_words = a.minor_words +. s.minor;
          major_words = a.major_words +. s.major;
        }
    end
  done;
  !acc

(* Writes the finished tracers' spans, one JSON object per line; [world]
   numbers the tracers, host times are relative to each one's first span,
   simulated times are the engine clock. Returns the span count. *)
let write_finished path =
  let oc = open_out path in
  let total = ref 0 in
  List.iteri
    (fun world t ->
      let base = if t.n = 0 then 0.0 else t.spans.(0).host0 in
      for i = 0 to t.n - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "{\"world\":%d,\"id\":%d,\"parent\":%d,\"root\":%d,\"layer\":%S,\"name\":%S,\"proc\":%S,\"host_start\":%s,\"host_end\":%s,\"self_host_s\":%s,\"sim_start\":%s,\"sim_end\":%s}\n"
          world s.id s.parent s.root s.layer s.name s.proc
          (Metric.json_number (s.host0 -. base))
          (Metric.json_number (s.host1 -. base))
          (Metric.json_number (s.host1 -. s.host0 -. s.child_host))
          (Metric.json_number s.sim0) (Metric.json_number s.sim1)
      done;
      total := !total + t.n)
    !finished;
  close_out oc;
  !total
