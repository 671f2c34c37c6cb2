type ph =
  | Complete of float
  | Instant
  | Async_begin of int
  | Async_instant of int
  | Async_end of int
  | Counter of float

type event = {
  ts : float;
  track : string;
  name : string;
  cat : string;
  ph : ph;
  args : (string * string) list;
}

type t = {
  clock : unit -> float;
  proc : unit -> string;
  limit : int;
  sample : int; (* record 1 in [sample] spans/instants *)
  ring : bool; (* full buffer evicts oldest instead of dropping newest *)
  mutable tick : int;
  mutable preadmitted : bool; (* {!keep} already spent a sampling slot *)
  mutable events : event list; (* newest first *)
  mutable n : int;
  mutable dropped : int;
  mutable evicted : int;
  mutable drop_counter : Metrics.counter option;
  mutable next_id : int;
  asyncs : (int, string * string) Hashtbl.t; (* open async id -> (name, cat) *)
}

(* The ambient tracer. A simulator run installs at most one; every
   instrumentation point in the stack goes through it, so code that can
   be traced needs no tracer parameter and costs one option check when
   tracing is off. *)
let installed : t option ref = ref None

let start ?(limit = 2_000_000) ?(sample = 1) ?(ring = false) engine =
  if sample < 1 then invalid_arg "Trace.start: sample must be >= 1";
  if limit < 1 then invalid_arg "Trace.start: limit must be >= 1";
  let tr =
    {
      clock = (fun () -> Engine.now engine);
      proc = (fun () -> Engine.current_name engine);
      limit;
      sample;
      ring;
      tick = 0;
      preadmitted = false;
      events = [];
      n = 0;
      dropped = 0;
      evicted = 0;
      drop_counter = None;
      next_id = 0;
      asyncs = Hashtbl.create 32;
    }
  in
  installed := Some tr;
  tr

let stop () = installed := None
let current () = !installed
(* NOT [!installed <> None]: polymorphic (<>) is a C call, and this
   guard sits on device hot paths precisely to make disabled tracing
   free. *)
let enabled () = match !installed with None -> false | Some _ -> true
let event_count t = t.n
let dropped t = t.dropped
let evicted t = t.evicted
let attach_metrics tr m = tr.drop_counter <- Some (Metrics.counter m "trace.dropped")

let note_unrecorded tr =
  match tr.drop_counter with None -> () | Some c -> Metrics.incr c

(* Ring eviction is amortized: let the buffer grow to 2*limit, then keep
   the newest [limit] in one O(limit) pass, so steady state is O(1) per
   event and never holds more than twice the budget. *)
let truncate_ring tr =
  let rec keep acc k = function
    | ev :: rest when k > 0 -> keep (ev :: acc) (k - 1) rest
    | _ -> List.rev acc
  in
  tr.evicted <- tr.evicted + (tr.n - tr.limit);
  tr.events <- keep [] tr.limit tr.events;
  tr.n <- tr.limit

let add tr ev =
  if tr.n >= tr.limit && not tr.ring then begin
    tr.dropped <- tr.dropped + 1;
    note_unrecorded tr
  end
  else begin
    tr.events <- ev :: tr.events;
    tr.n <- tr.n + 1;
    if tr.ring && tr.n >= 2 * tr.limit then truncate_ring tr
  end

let resolve_track tr = function Some track -> track | None -> tr.proc ()

(* 1-in-N sampling for the high-volume event kinds (spans, instants,
   counters). Async lifecycles are never sampled: dropping a begin
   orphans its end, and they are orders of magnitude rarer. *)
let sampled tr =
  if tr.preadmitted then begin
    tr.preadmitted <- false;
    true
  end
  else
    tr.sample = 1
    ||
    let k = tr.tick + 1 in
    if k >= tr.sample then begin
      tr.tick <- 0;
      true
    end
    else begin
      tr.tick <- k;
      note_unrecorded tr;
      false
    end

(* Hot-path pre-check: spends the sampling slot before the caller has
   built any event arguments, so a sampled-out event costs two loads
   and a branch instead of an allocation. A [true] result pre-admits
   the caller's next span/instant/counter. *)
let keep () =
  match !installed with
  | None -> false
  | Some tr ->
      if sampled tr then begin
        tr.preadmitted <- true;
        true
      end
      else false

let instant ?track ?(cat = "") ?(args = []) name =
  match !installed with
  | None -> ()
  | Some tr ->
      if sampled tr then
        add tr { ts = tr.clock (); track = resolve_track tr track; name; cat; ph = Instant; args }

let counter ~track ?(cat = "") name value =
  match !installed with
  | None -> ()
  | Some tr ->
      if sampled tr then add tr { ts = tr.clock (); track; name; cat; ph = Counter value; args = [] }

let span ?track ?(cat = "") ?(args = []) name f =
  match !installed with
  | None -> f ()
  | Some tr ->
      if not (sampled tr) then f ()
      else begin
        let track = resolve_track tr track in
        let t0 = tr.clock () in
        let finish () =
          add tr { ts = t0; track; name; cat; ph = Complete (tr.clock () -. t0); args }
        in
        match f () with
        | v ->
            finish ();
            v
        | exception e ->
            finish ();
            raise e
      end

let async_begin ?track ?(cat = "request") ?(args = []) name =
  match !installed with
  | None -> -1
  | Some tr ->
      let id = tr.next_id in
      tr.next_id <- id + 1;
      Hashtbl.replace tr.asyncs id (name, cat);
      add tr
        { ts = tr.clock (); track = resolve_track tr track; name; cat; ph = Async_begin id; args };
      id

(* The name/cat of an async slice must match its begin event, so the
   middle and end points look the id up rather than trusting callers. *)
let async_event ?track ?(args = []) ~close id =
  match !installed with
  | None -> ()
  | Some tr -> (
      match Hashtbl.find_opt tr.asyncs id with
      | None -> ()
      | Some (name, cat) ->
          if close then Hashtbl.remove tr.asyncs id;
          add tr
            {
              ts = tr.clock ();
              track = resolve_track tr track;
              name;
              cat;
              ph = (if close then Async_end id else Async_instant id);
              args;
            })

let async_instant ?track ?args id = async_event ?track ?args ~close:false id
let async_end ?track ?args id = async_event ?track ?args ~close:true id

let absorb dst ~offset src =
  List.iter (fun ev -> add dst { ev with ts = ev.ts +. offset }) (List.rev src.events)

(* ---------- Chrome trace-event export ---------- *)

let json_escape = Util.Misc.json_escape

let add_args b args =
  Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    args;
  Buffer.add_char b '}'

(* Simulated seconds -> trace microseconds. *)
let usecs ts = ts *. 1e6

let export ?since t =
  let kept = match since with None -> t.events | Some t0 -> List.filter (fun ev -> ev.ts >= t0) t.events in
  let events = List.stable_sort (fun a b -> Float.compare a.ts b.ts) (List.rev kept) in
  (* tracks become Chrome "threads" of one process, named via metadata
     events, tids assigned in order of first appearance *)
  let tids = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun ev ->
      if not (Hashtbl.mem tids ev.track) then begin
        Hashtbl.replace tids ev.track (Hashtbl.length tids + 1);
        order := ev.track :: !order
      end)
    events;
  let b = Buffer.create (4096 + (t.n * 96)) in
  Buffer.add_string b "[\n";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"highlight-sim\"}}";
  List.iter
    (fun track ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           (Hashtbl.find tids track) (json_escape track)))
    (List.rev !order);
  List.iter
    (fun ev ->
      let tid = Hashtbl.find tids ev.track in
      Buffer.add_string b
        (Printf.sprintf ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.3f"
           (json_escape ev.name)
           (json_escape (if ev.cat = "" then "sim" else ev.cat))
           tid (usecs ev.ts));
      (match ev.ph with
      | Complete dur -> Buffer.add_string b (Printf.sprintf ",\"ph\":\"X\",\"dur\":%.3f" (usecs dur))
      | Instant -> Buffer.add_string b ",\"ph\":\"i\",\"s\":\"t\""
      | Async_begin id -> Buffer.add_string b (Printf.sprintf ",\"ph\":\"b\",\"id\":\"0x%x\"" id)
      | Async_instant id -> Buffer.add_string b (Printf.sprintf ",\"ph\":\"n\",\"id\":\"0x%x\"" id)
      | Async_end id -> Buffer.add_string b (Printf.sprintf ",\"ph\":\"e\",\"id\":\"0x%x\"" id)
      | Counter v ->
          Buffer.add_string b ",\"ph\":\"C\"";
          Buffer.add_string b (Printf.sprintf ",\"args\":{\"value\":%g}" v));
      (match ev.ph with Counter _ -> () | _ -> if ev.args <> [] then add_args b ev.args);
      Buffer.add_char b '}')
    events;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let write_file ?since t path =
  let oc = open_out path in
  output_string oc (export ?since t);
  close_out oc
