type t = {
  clock : Eventq.clock; (* single-float record: unboxed stores *)
  q : Eventq.t;
  mutable next_pid : int;
  blocked : (int, string) Hashtbl.t;
  (* the process on the virtual CPU, -1 / "" between events; plain
     fields rather than an option so per-event bookkeeping is two
     stores, not an allocation *)
  mutable running_pid : int;
  mutable running_name : string;
  mutable events_retired : int;
  mutable drain_watcher : (string list -> unit) option;
}

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let create ?capacity () =
  {
    clock = { Eventq.time = 0.0 };
    q = Eventq.create ?capacity ();
    next_pid = 0;
    blocked = Hashtbl.create 16;
    running_pid = -1;
    running_name = "";
    events_retired = 0;
    drain_watcher = None;
  }

let now t = t.clock.Eventq.time
let clock t = t.clock
let events_retired t = t.events_retired
let pending_events t = Eventq.length t.q

(* Reusing the caller's float box when the clamp is a no-op keeps the
   common delay path down to the effect payload itself. *)
let delay d = Effect.perform (Delay (if d > 0.0 then d else 0.0))
let suspend register = Effect.perform (Suspend register)

let current_process t = if t.running_pid < 0 then None else Some t.running_name
let current_name t = if t.running_pid < 0 then "main" else t.running_name

let schedule t ~after f =
  Eventq.push_after t.q t.clock { Eventq.act = Eventq.Thunk f; pid = -1; name = "" } ~after

(* A reusable timer is just an event slot the caller keeps: re-arming
   pushes the same slot again, so a recurring tick allocates nothing
   per firing. Arming an already-armed timer queues a second firing. *)
type timer = Eventq.slot

let timer _t f : timer = { Eventq.act = Eventq.Thunk f; pid = -1; name = "" }

let arm t (tm : timer) ~after = Eventq.push_after t.q t.clock tm ~after

(* Each spawned process runs under its own deep handler; resumptions
   are scheduled as events so a process always runs to its next
   blocking point before any other process is entered.

   A process owns one {!Eventq.slot}, reused for every event it ever
   queues — its initial slice, each [Delay] resumption, each wake-up
   after [Suspend]. That reuse is sound because a coroutine has at most
   one pending event (it is running, parked, or waiting on exactly one
   timer), and it is what keeps the steady-state delay loop down to the
   effect payload and a [Resume] box: the handler and its reactions are
   allocated once per process, not once per event, with the pending
   delay parked in a one-slot float array so even the handler handoff
   does not box. *)
let spawn t ?name f =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let pname = match name with Some n -> n | None -> "proc-" ^ string_of_int pid in
  let pending_delay = [| 0.0 |] in
  let rec slot = { Eventq.act = Eventq.Thunk start; pid; name = pname }
  and start () = Effect.Deep.match_with f () handler
  and on_delay : (unit, unit) Effect.Deep.continuation -> unit =
    fun k ->
     slot.Eventq.act <- Eventq.Resume k;
     Eventq.push_after t.q t.clock slot ~after:pending_delay.(0)
  and handler =
    {
      Effect.Deep.retc = ignore;
      (* keep the raising frame: a plain [raise] would restart the
         backtrace here, so every error would point at [spawn] *)
      exnc = (fun e -> Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ()));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
              pending_delay.(0) <- d;
              (Some on_delay : ((a, unit) Effect.Deep.continuation -> unit) option)
          | Suspend register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  Hashtbl.replace t.blocked pid pname;
                  let fired = ref false in
                  let wake () =
                    if not !fired then begin
                      fired := true;
                      Hashtbl.remove t.blocked pid;
                      slot.Eventq.act <- Eventq.Resume k;
                      (* ~after:0.0 is a static constant; passing
                         [t.clock.Eventq.time] here would box it *)
                      Eventq.push_after t.q t.clock slot ~after:0.0
                    end
                  in
                  register wake)
          | _ -> None);
    }
  in
  Eventq.push_after t.q t.clock slot ~after:0.0

(* One event: pop (advancing the clock in place), then run the slice
   with the process named on the virtual CPU. Timer/schedule callbacks
   (pid < 0) run as "main": the running fields already hold their
   between-events values, so skipping the bookkeeping saves two
   write-barrier stores per event on the hottest dispatch. *)
let step t =
  let s = Eventq.pop_into t.q t.clock in
  t.events_retired <- t.events_retired + 1;
  if s.Eventq.pid < 0 then
    match s.Eventq.act with
    | Eventq.Noop -> ()
    | Eventq.Thunk f -> f () (* owned by its timer; nothing to scrub *)
    | Eventq.Resume k ->
        s.Eventq.act <- Eventq.Noop;
        Effect.Deep.continue k ()
  else begin
    t.running_pid <- s.Eventq.pid;
    t.running_name <- s.Eventq.name;
    (try
       match s.Eventq.act with
       | Eventq.Noop -> ()
       | Eventq.Thunk f -> f () (* the process's first slice *)
       | Eventq.Resume k ->
           (* clear before resuming so a retired continuation is never
              retained by the slot; the slice re-arms it when it blocks *)
           s.Eventq.act <- Eventq.Noop;
           Effect.Deep.continue k ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       t.running_pid <- -1;
       t.running_name <- "";
       Printexc.raise_with_backtrace e bt);
    t.running_pid <- -1;
    t.running_name <- ""
  end

let blocked_processes t = Hashtbl.length t.blocked

let blocked_process_names t =
  Hashtbl.fold (fun _ name acc -> name :: acc) t.blocked [] |> List.sort String.compare

let set_drain_watcher t w = t.drain_watcher <- w

let run t =
  let q = t.q in
  while not (Eventq.is_empty q) do
    step t;
    (* A drained queue with parked processes is a deadlock about to be
       silently abandoned; give the health plane one chance to observe
       it (and possibly schedule diagnostics) before [run] returns. *)
    if Eventq.is_empty q && Hashtbl.length t.blocked > 0 then begin
      match t.drain_watcher with
      | None -> ()
      | Some w ->
          t.drain_watcher <- None;
          w (blocked_process_names t)
    end
  done

let run_until t limit =
  let q = t.q in
  let exception Beyond in
  (try
     while not (Eventq.is_empty q) do
       if Eventq.min_time q > limit then raise_notrace Beyond;
       step t
     done
   with Beyond -> ());
  if t.clock.Eventq.time < limit then t.clock.Eventq.time <- limit
