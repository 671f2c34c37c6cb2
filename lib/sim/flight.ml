(* Flight recorder: an always-on bounded ring of recent trace events
   plus a black-box dumper. The ring reuses Trace's ambient tracer in
   [~ring:true] mode (evict-oldest), so leaving it on costs the same as
   sampled tracing; when an alert fires, [dump] writes a post-mortem
   bundle — the Chrome trace of the last [window_s] simulated seconds,
   a metrics snapshot, every open ledger's wait profile, and a manifest
   of the active alerts — to its own directory.

   If a full tracer is already installed (e.g. hlctl --trace), the
   recorder shares it instead of replacing it: the dump's [since] cut
   makes the bundle equivalent either way. *)

type t = {
  engine : Engine.t;
  tracer : Trace.t;
  owns_tracer : bool;
  window_s : float;
  dir : string;
  mutable seq : int;
  mutable dumps : string list; (* newest first *)
}

let start ?(ring = 65_536) ?(sample = 1) ?(window_s = 600.0) ?(dir = "blackbox") engine =
  let tracer, owns_tracer =
    match Trace.current () with
    | Some tr -> (tr, false)
    | None -> (Trace.start ~limit:ring ~sample ~ring:true engine, true)
  in
  { engine; tracer; owns_tracer; window_s; dir; seq = 0; dumps = [] }

let tracer t = t.tracer
let window_s t = t.window_s
let dumps t = List.rev t.dumps
let stop t = if t.owns_tracer then Trace.stop ()

let sanitize s =
  String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c -> c | _ -> '-') s

let json_escape = Util.Misc.json_escape

(* Open (in-flight) ledgers: the requests that were still stuck when the
   alert fired, each with its blame-ranked charges so far. *)
let open_ledgers_json now =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"highlight-blackbox-ledgers/v1\",\n  \"open\": [";
  let first = ref true in
  Ledger.iter_open (fun l ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b
        (Printf.sprintf "\n    { \"id\": %d, \"kind\": \"%s\", \"opened_at\": %.6f, \"age_s\": %.6f"
           (Ledger.id l) (json_escape (Ledger.kind l)) (Ledger.opened_at l)
           (now -. Ledger.opened_at l));
      Buffer.add_string b (Printf.sprintf ", \"charged_s\": %.6f, \"charges\": {" (Ledger.total l));
      let first_cat = ref true in
      List.iter
        (fun cat ->
          let c = Ledger.charged l cat in
          if c > 0.0 then begin
            if not !first_cat then Buffer.add_string b ", ";
            first_cat := false;
            Buffer.add_string b (Printf.sprintf "\"%s\": %.6f" (Ledger.category_name cat) c)
          end)
        Ledger.categories;
      Buffer.add_string b "} }");
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let dump ?metrics ?(alerts = []) ~reason t =
  let now = Engine.now t.engine in
  t.seq <- t.seq + 1;
  let bundle = Filename.concat t.dir (Printf.sprintf "%03d-%s" t.seq (sanitize reason)) in
  Util.Misc.mkdir_p bundle;
  let since = Float.max 0.0 (now -. t.window_s) in
  Trace.write_file ~since t.tracer (Filename.concat bundle "trace.json");
  let files = ref [ "trace.json" ] in
  (match metrics with
  | Some m ->
      Metrics.write_file m (Filename.concat bundle "metrics.json");
      files := "metrics.json" :: !files
  | None -> ());
  if Ledger.enabled () then begin
    Util.Misc.write_file (Filename.concat bundle "ledgers.json") (open_ledgers_json now);
    files := "ledgers.json" :: !files
  end;
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n  \"schema\": \"highlight-blackbox/v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"reason\": \"%s\",\n" (json_escape reason));
  Buffer.add_string b (Printf.sprintf "  \"sim_time_s\": %.6f,\n" now);
  Buffer.add_string b (Printf.sprintf "  \"window\": { \"since_s\": %.6f, \"until_s\": %.6f },\n" since now);
  Buffer.add_string b
    (Printf.sprintf "  \"ring\": { \"events\": %d, \"evicted\": %d, \"dropped\": %d },\n"
       (Trace.event_count t.tracer) (Trace.evicted t.tracer) (Trace.dropped t.tracer));
  Buffer.add_string b "  \"alerts\": [";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\"" (json_escape a)))
    alerts;
  Buffer.add_string b "],\n  \"files\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\"" f))
    (List.rev !files);
  Buffer.add_string b "]\n}\n";
  Util.Misc.write_file (Filename.concat bundle "manifest.json") (Buffer.contents b);
  t.dumps <- bundle :: t.dumps;
  bundle
