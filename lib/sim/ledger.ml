(* Request-scoped cost attribution. One ledger per in-flight request
   (demand fetch, prefetch, write-out); every blocking point charges the
   virtual time it cost to a category. Because simulated time only
   advances inside [Engine.delay]/[Engine.suspend], charging every block
   point makes the per-category charges sum exactly to the request's
   end-to-end latency — the invariant test_attrib.ml asserts.

   Like Trace and Fault, the ledger layer is ambient: a run installs at
   most one registry and every instrumentation point is a no-op when
   none is installed (or when handed the [none] ledger). Activation is
   keyed by the *running process's name*: a worker activates the ledger
   of the request it is serving for the dynamic extent of the phase, and
   device-layer charges ([charge_active]/[charged_active]) find it
   there. Coroutines interleave at suspension points, but each worker
   process serves one request at a time, so the per-process binding is
   exact where a single global would smear charges across requests. *)

type category =
  | Queue_wait
  | Robot_swap
  | Seek_rotate
  | Transfer
  | Bus_contention
  | Cache_disk_write
  | Lock_wait
  | Tertiary_write

let categories =
  [
    Queue_wait; Robot_swap; Seek_rotate; Transfer; Bus_contention; Cache_disk_write; Lock_wait;
    Tertiary_write;
  ]

let ncats = List.length categories

let cat_index = function
  | Queue_wait -> 0
  | Robot_swap -> 1
  | Seek_rotate -> 2
  | Transfer -> 3
  | Bus_contention -> 4
  | Cache_disk_write -> 5
  | Lock_wait -> 6
  | Tertiary_write -> 7

let category_name = function
  | Queue_wait -> "queue_wait"
  | Robot_swap -> "robot_swap"
  | Seek_rotate -> "seek_rotate"
  | Transfer -> "transfer"
  | Bus_contention -> "bus_contention"
  | Cache_disk_write -> "cache_disk_write"
  | Lock_wait -> "lock_wait"
  | Tertiary_write -> "tertiary_write"

type t = {
  l_id : int;
  l_kind : string;
  l_opened : float;
  charges : float array;
  mutable first_block : float; (* seconds after open; -1 = not yet marked *)
  mutable closed : bool;
}

let none =
  { l_id = -1; l_kind = ""; l_opened = 0.0; charges = [||]; first_block = -1.0; closed = true }

let is_real l = l.l_id >= 0

(* Per-request-class aggregate, folded from closed ledgers. *)
type agg = {
  totals : float array;
  counts : int array; (* requests that charged the category at all *)
  mutable a_requests : int;
  mutable a_e2e : float;
  mutable a_fb_total : float;
  mutable a_fb_count : int;
}

type registry = {
  engine : Engine.t;
  metrics : Metrics.t;
  mutable next_id : int;
  active : (string, t * category option) Hashtbl.t; (* process name -> (ledger, redirect) *)
  aggs : (string, agg) Hashtbl.t;
  opens : (int, t) Hashtbl.t; (* in-flight ledgers, for watchdogs/flight dumps *)
  mutable open_count : int;
}

let installed : registry option ref = ref None

let install ?metrics engine =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  installed :=
    Some
      {
        engine;
        metrics;
        next_id = 0;
        active = Hashtbl.create 16;
        aggs = Hashtbl.create 8;
        opens = Hashtbl.create 32;
        open_count = 0;
      }

let uninstall () = installed := None

(* match, not polymorphic (<>): this guard must stay branch-cheap *)
let enabled () = match !installed with None -> false | Some _ -> true

(* [Engine.current_name] hands back an already-live string — the
   option-returning [current_process] would box one per charge. *)
let proc r = Engine.current_name r.engine

let open_request ~kind =
  match !installed with
  | None -> none
  | Some r ->
      let id = r.next_id in
      r.next_id <- id + 1;
      r.open_count <- r.open_count + 1;
      let l =
        {
          l_id = id;
          l_kind = kind;
          l_opened = Engine.now r.engine;
          charges = Array.make ncats 0.0;
          first_block = -1.0;
          closed = false;
        }
      in
      Hashtbl.replace r.opens id l;
      l

let id l = l.l_id
let kind l = l.l_kind
let opened_at l = l.l_opened

let charge l cat dt =
  if is_real l && dt > 0.0 then begin
    let i = cat_index cat in
    l.charges.(i) <- l.charges.(i) +. dt
  end

let charge_since l cat t0 =
  if is_real l then
    match !installed with
    | None -> ()
    | Some r -> charge l cat (Engine.now r.engine -. t0)

let charged l cat = if is_real l then l.charges.(cat_index cat) else 0.0
let total l = Array.fold_left ( +. ) 0.0 l.charges

let mark_first_block l =
  if is_real l && l.first_block < 0.0 then
    match !installed with
    | None -> ()
    | Some r -> l.first_block <- Engine.now r.engine -. l.l_opened

let agg r kind =
  match Hashtbl.find_opt r.aggs kind with
  | Some a -> a
  | None ->
      let a =
        {
          totals = Array.make ncats 0.0;
          counts = Array.make ncats 0;
          a_requests = 0;
          a_e2e = 0.0;
          a_fb_total = 0.0;
          a_fb_count = 0;
        }
      in
      Hashtbl.replace r.aggs kind a;
      a

let drop l =
  if is_real l && not l.closed then begin
    l.closed <- true;
    match !installed with
    | None -> ()
    | Some r ->
        r.open_count <- r.open_count - 1;
        Hashtbl.remove r.opens l.l_id
  end

let hist_name kind what = Printf.sprintf "ledger.%s.%s" kind what

let close l =
  if is_real l && not l.closed then begin
    l.closed <- true;
    match !installed with
    | None -> ()
    | Some r ->
        r.open_count <- r.open_count - 1;
        Hashtbl.remove r.opens l.l_id;
        let a = agg r l.l_kind in
        a.a_requests <- a.a_requests + 1;
        let e2e = Engine.now r.engine -. l.l_opened in
        a.a_e2e <- a.a_e2e +. e2e;
        Metrics.observe (Metrics.histogram r.metrics (hist_name l.l_kind "e2e_s")) e2e;
        if l.first_block >= 0.0 then begin
          a.a_fb_total <- a.a_fb_total +. l.first_block;
          a.a_fb_count <- a.a_fb_count + 1;
          Metrics.observe
            (Metrics.histogram r.metrics (hist_name l.l_kind "first_block_s"))
            l.first_block
        end;
        List.iter
          (fun cat ->
            let i = cat_index cat in
            if l.charges.(i) > 0.0 then begin
              a.totals.(i) <- a.totals.(i) +. l.charges.(i);
              a.counts.(i) <- a.counts.(i) + 1;
              Metrics.observe
                (Metrics.histogram r.metrics (hist_name l.l_kind (category_name cat ^ "_s")))
                l.charges.(i)
            end)
          categories
  end

(* ---------- ambient activation ---------- *)

let with_active ?redirect l f =
  if not (is_real l) then f ()
  else
    match !installed with
    | None -> f ()
    | Some r -> (
        let p = proc r in
        let prev = Hashtbl.find_opt r.active p in
        Hashtbl.replace r.active p (l, redirect);
        let restore () =
          match prev with
          | Some e -> Hashtbl.replace r.active p e
          | None -> Hashtbl.remove r.active p
        in
        match f () with
        | v ->
            restore ();
            v
        | exception e ->
            restore ();
            raise e)

(* The device layers call these on every simulated I/O; [Hashtbl.find]
   + [Not_found] keeps the common miss path from boxing an option. *)
let charge_active cat dt =
  match !installed with
  | None -> ()
  | Some r -> (
      match Hashtbl.find r.active (proc r) with
      | l, redirect -> charge l (match redirect with Some c -> c | None -> cat) dt
      | exception Not_found -> ())

let charged_active cat f =
  match !installed with
  | None -> f ()
  | Some r -> (
      match Hashtbl.find r.active (proc r) with
      | exception Not_found -> f ()
      | l, redirect -> (
          let cat = match redirect with Some c -> c | None -> cat in
          let t0 = Engine.now r.engine in
          match f () with
          | v ->
              charge l cat (Engine.now r.engine -. t0);
              v
          | exception e ->
              charge l cat (Engine.now r.engine -. t0);
              raise e))

(* The device models' common case: with no registry installed this is a
   bare [Engine.delay], with no thunk built for it. *)
let charged_delay cat d =
  match !installed with
  | None -> Engine.delay d
  | Some _ -> charged_active cat (fun () -> Engine.delay d)

(* ---------- aggregate summary and export ---------- *)

type cat_stat = { cat : category; total_s : float; count : int; p95_s : float }

type class_summary = {
  cls : string;
  requests : int;
  e2e_total_s : float;
  e2e_p95_s : float;
  first_blocks : int;
  first_block_total_s : float;
  by_category : cat_stat list;
}

let p95 r name =
  match Metrics.find_histogram r.metrics name with
  | Some h when Metrics.observations h > 0 -> Metrics.percentile h 0.95
  | _ -> 0.0

let summary () =
  match !installed with
  | None -> []
  | Some r ->
      Hashtbl.fold (fun kind a acc -> (kind, a) :: acc) r.aggs []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (kind, a) ->
             let by_category =
               List.filter_map
                 (fun cat ->
                   let i = cat_index cat in
                   if a.counts.(i) = 0 then None
                   else
                     Some
                       {
                         cat;
                         total_s = a.totals.(i);
                         count = a.counts.(i);
                         p95_s = p95 r (hist_name kind (category_name cat ^ "_s"));
                       })
                 categories
               (* blame-ranked: the critical-path ordering *)
               |> List.sort (fun x y -> Float.compare y.total_s x.total_s)
             in
             {
               cls = kind;
               requests = a.a_requests;
               e2e_total_s = a.a_e2e;
               e2e_p95_s = p95 r (hist_name kind "e2e_s");
               first_blocks = a.a_fb_count;
               first_block_total_s = a.a_fb_total;
               by_category;
             })

let open_requests () = match !installed with None -> 0 | Some r -> r.open_count

let iter_open f =
  match !installed with
  | None -> ()
  | Some r ->
      Hashtbl.fold (fun _ l acc -> l :: acc) r.opens []
      |> List.sort (fun a b -> Int.compare a.l_id b.l_id)
      |> List.iter f
let wall () = match !installed with None -> 0.0 | Some r -> Engine.now r.engine

let to_json () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"schema\": \"highlight-profile/v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"wall_s\": %.6f,\n" (wall ()));
  Buffer.add_string b (Printf.sprintf "  \"open_requests\": %d,\n" (open_requests ()));
  Buffer.add_string b "  \"classes\": {";
  List.iteri
    (fun i cs ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n    \"%s\": {\n" cs.cls);
      Buffer.add_string b
        (Printf.sprintf
           "      \"requests\": %d,\n      \"e2e_total_s\": %.6f,\n      \"e2e_p95_s\": %.6f,\n"
           cs.requests cs.e2e_total_s cs.e2e_p95_s);
      Buffer.add_string b
        (Printf.sprintf "      \"first_blocks\": %d,\n      \"first_block_total_s\": %.6f,\n"
           cs.first_blocks cs.first_block_total_s);
      Buffer.add_string b "      \"critical_path\": [";
      List.iteri
        (fun j c ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (Printf.sprintf "\"%s\"" (category_name c.cat)))
        cs.by_category;
      Buffer.add_string b "],\n      \"categories\": {";
      List.iteri
        (fun j c ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\n        \"%s\": { \"total_s\": %.6f, \"count\": %d, \"p95_s\": %.6f }"
               (category_name c.cat) c.total_s c.count c.p95_s))
        cs.by_category;
      Buffer.add_string b "\n      }\n    }")
    (summary ());
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b
