(* An all-float record is stored flat, so the per-request busy-time
   stores write unboxed doubles instead of allocating a box each. *)
type busy = { mutable total : float; mutable since : float }

type t = {
  engine : Engine.t;
  label : string;
  capacity : int;
  wait_category : Ledger.category option;
  mutable held : int;
  waiting : (unit -> unit) Queue.t;
  created_at : float;
  busy : busy;
  now : Eventq.clock;  (* the engine's: read in place, never through a call *)
}

let create engine ?(capacity = 1) ?wait_category label =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
  {
    engine;
    label;
    capacity;
    wait_category;
    held = 0;
    waiting = Queue.create ();
    created_at = Engine.now engine;
    busy = { total = 0.0; since = 0.0 };
    now = Engine.clock engine;
  }

let name t = t.label

let acquire t =
  (* When the resource is exhausted, [release] hands the unit straight to
     the head waiter: [held] never drops, so no third party can steal the
     unit between the release and the waiter's resumption. *)
  if t.held < t.capacity && Queue.is_empty t.waiting then begin
    if t.held = 0 then t.busy.since <- t.now.Eventq.time;
    t.held <- t.held + 1
  end
  else begin
    let park () = Engine.suspend (fun wake -> Queue.add wake t.waiting) in
    match t.wait_category with
    | None -> park ()
    | Some cat -> Ledger.charged_active cat park
  end

let release t =
  if t.held <= 0 then invalid_arg "Resource.release: not held";
  match Queue.take_opt t.waiting with
  | Some wake -> wake ()
  | None ->
      t.held <- t.held - 1;
      if t.held = 0 then t.busy.total <- t.busy.total +. (t.now.Eventq.time -. t.busy.since)

let with_resource t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e

let in_use t = t.held

let busy_time t =
  if t.held > 0 then t.busy.total +. (Engine.now t.engine -. t.busy.since) else t.busy.total

let utilization t =
  let elapsed = Engine.now t.engine -. t.created_at in
  if elapsed <= 0.0 then 0.0 else busy_time t /. elapsed
