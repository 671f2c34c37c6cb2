open Sim

let check = Alcotest.check

let test_delay_advances_clock () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay 1.5;
      seen := Engine.now e :: !seen;
      Engine.delay 2.5;
      seen := Engine.now e :: !seen);
  Engine.run e;
  check Alcotest.(list (float 1e-9)) "times" [ 4.0; 1.5 ] !seen

exception Boom

let[@inline never] raise_boom () = if Sys.opaque_identity true then raise Boom

(* An error escaping a process keeps the frame that raised it, on the
   first slice and on a resumed one, through [Engine.run]. *)
let test_backtrace_survives_run () =
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace was) @@ fun () ->
  let frames_of body =
    let e = Engine.create () in
    Engine.spawn e body;
    match Engine.run e with
    | () -> Alcotest.fail "no exception escaped"
    | exception Boom -> (
        match Printexc.backtrace_slots (Printexc.get_raw_backtrace ()) with
        | None -> []
        | Some slots -> Array.to_list slots |> List.filter_map Printexc.Slot.name)
  in
  List.iter
    (fun (label, body) ->
      let frames = frames_of body in
      check Alcotest.bool
        (Printf.sprintf "%s: raise_boom in [%s]" label (String.concat "; " frames))
        true
        (List.exists (String.ends_with ~suffix:".raise_boom") frames))
    [ ("first slice", raise_boom); ("after a delay", fun () -> Engine.delay 1.0; raise_boom ()) ]

let test_zero_delay_and_order () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.spawn e (fun () -> order := "a" :: !order);
  Engine.spawn e (fun () -> order := "b" :: !order);
  Engine.run e;
  (* FIFO at equal timestamps *)
  check Alcotest.(list string) "spawn order" [ "a"; "b" ] (List.rev !order)

let test_interleaving () =
  let e = Engine.create () in
  let trace = ref [] in
  let log tag = trace := (tag, Engine.now e) :: !trace in
  Engine.spawn e (fun () ->
      log "p1-start";
      Engine.delay 10.0;
      log "p1-end");
  Engine.spawn e (fun () ->
      log "p2-start";
      Engine.delay 4.0;
      log "p2-mid";
      Engine.delay 4.0;
      log "p2-end");
  Engine.run e;
  let expected =
    [ ("p1-start", 0.0); ("p2-start", 0.0); ("p2-mid", 4.0); ("p2-end", 8.0); ("p1-end", 10.0) ]
  in
  check
    Alcotest.(list (pair string (float 1e-9)))
    "interleaved" expected (List.rev !trace)

let test_run_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 10 do
        Engine.delay 1.0;
        incr hits
      done);
  Engine.run_until e 3.5;
  check Alcotest.int "only events <= 3.5" 3 !hits;
  check (Alcotest.float 1e-9) "clock at limit" 3.5 (Engine.now e);
  Engine.run e;
  check Alcotest.int "rest completes" 10 !hits

let test_suspend_wake () =
  let e = Engine.create () in
  let waker = ref (fun () -> ()) in
  let resumed_at = ref (-1.0) in
  Engine.spawn e (fun () ->
      Engine.suspend (fun wake -> waker := wake);
      resumed_at := Engine.now e);
  Engine.spawn e (fun () ->
      Engine.delay 7.0;
      !waker ());
  Engine.run e;
  check (Alcotest.float 1e-9) "resumed when woken" 7.0 !resumed_at

let test_double_wake_harmless () =
  let e = Engine.create () in
  let resumes = ref 0 in
  let waker = ref (fun () -> ()) in
  Engine.spawn e (fun () ->
      Engine.suspend (fun wake -> waker := wake);
      incr resumes);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      !waker ();
      !waker ());
  Engine.run e;
  check Alcotest.int "resumed once" 1 !resumes

let test_blocked_processes () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> Engine.suspend (fun _ -> ()));
  Engine.run e;
  check Alcotest.int "one stuck" 1 (Engine.blocked_processes e)

(* --- Condvar --- *)

let test_condvar_broadcast () =
  let e = Engine.create () in
  let cv = Condvar.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Condvar.wait cv;
        incr woken)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 5.0;
      Condvar.broadcast cv);
  Engine.run e;
  check Alcotest.int "all woken" 3 !woken

let test_condvar_signal_one () =
  let e = Engine.create () in
  let cv = Condvar.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () ->
        Condvar.wait cv;
        incr woken)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Condvar.signal cv);
  Engine.run e;
  check Alcotest.int "one woken" 1 !woken;
  check Alcotest.int "two remain" 2 (Condvar.waiters cv)

(* --- Resource --- *)

let test_resource_serialises () =
  let e = Engine.create () in
  let r = Resource.create e "disk" in
  let finish = ref [] in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        Resource.with_resource r (fun () -> Engine.delay 2.0);
        finish := (i, Engine.now e) :: !finish)
  done;
  Engine.run e;
  check
    Alcotest.(list (pair int (float 1e-9)))
    "fifo, serialised"
    [ (1, 2.0); (2, 4.0); (3, 6.0) ]
    (List.rev !finish)

let test_resource_capacity2 () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:2 "bus" in
  let finish = ref [] in
  for i = 1 to 4 do
    Engine.spawn e (fun () ->
        Resource.with_resource r (fun () -> Engine.delay 3.0);
        finish := (i, Engine.now e) :: !finish)
  done;
  Engine.run e;
  check
    Alcotest.(list (pair int (float 1e-9)))
    "pairs overlap"
    [ (1, 3.0); (2, 3.0); (3, 6.0); (4, 6.0) ]
    (List.rev !finish)

let test_resource_no_steal () =
  (* A late acquirer must not jump the queue when a unit is handed to a
     waiter. *)
  let e = Engine.create () in
  let r = Resource.create e "disk" in
  let order = ref [] in
  Engine.spawn e (fun () ->
      Resource.with_resource r (fun () -> Engine.delay 5.0);
      order := "first" :: !order);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Resource.with_resource r (fun () -> Engine.delay 1.0);
      order := "queued" :: !order);
  Engine.spawn e (fun () ->
      Engine.delay 5.0;
      (* arrives exactly when the first release happens *)
      Resource.with_resource r (fun () -> Engine.delay 1.0);
      order := "late" :: !order);
  Engine.run e;
  check Alcotest.(list string) "fifo kept" [ "first"; "queued"; "late" ] (List.rev !order)

let test_resource_utilization () =
  let e = Engine.create () in
  let r = Resource.create e "disk" in
  Engine.spawn e (fun () ->
      Engine.delay 2.0;
      Resource.with_resource r (fun () -> Engine.delay 6.0);
      Engine.delay 2.0);
  Engine.run e;
  check (Alcotest.float 1e-9) "busy" 6.0 (Resource.busy_time r);
  check (Alcotest.float 1e-9) "util" 0.6 (Resource.utilization r)

let test_resource_release_unheld () =
  let e = Engine.create () in
  let r = Resource.create e "disk" in
  Alcotest.check_raises "release unheld" (Invalid_argument "Resource.release: not held")
    (fun () -> Resource.release r)

(* --- Mailbox --- *)

let test_mailbox_blocking_recv () =
  let e = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn e (fun () ->
      for _ = 1 to 3 do
        let msg = Mailbox.recv mb in
        got := (msg, Engine.now e) :: !got
      done);
  Engine.spawn e (fun () ->
      Engine.delay 1.0;
      Mailbox.send mb "a";
      Engine.delay 1.0;
      Mailbox.send mb "b";
      Mailbox.send mb "c");
  Engine.run e;
  check
    Alcotest.(list (pair string (float 1e-9)))
    "messages in order"
    [ ("a", 1.0); ("b", 2.0); ("c", 2.0) ]
    (List.rev !got)

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  check Alcotest.(option int) "empty" None (Mailbox.try_recv mb);
  Mailbox.send mb 9;
  check Alcotest.int "len" 1 (Mailbox.length mb);
  check Alcotest.(option int) "one" (Some 9) (Mailbox.try_recv mb)

(* --- Stats --- *)

let test_stats_moments () =
  let s = Stats.create "x" in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check Alcotest.int "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-6) "stddev" 2.13809 (Stats.stddev s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max_value s);
  Stats.reset s;
  check Alcotest.int "reset" 0 (Stats.count s)

(* --- properties --- *)

let prop_delays_accumulate =
  QCheck.Test.make ~name:"n sequential delays sum exactly" ~count:100
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun ds ->
      let e = Engine.create () in
      let final = ref 0.0 in
      Engine.spawn e (fun () ->
          List.iter Engine.delay ds;
          final := Engine.now e);
      Engine.run e;
      let expected = List.fold_left ( +. ) 0.0 ds in
      Float.abs (!final -. expected) <= 1e-6 *. Float.max 1.0 expected)

let prop_resource_mutual_exclusion =
  QCheck.Test.make ~name:"unit resource never doubly held" ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) (float_bound_inclusive 5.0))
    (fun durations ->
      let e = Engine.create () in
      let r = Resource.create e "x" in
      let inside = ref 0 in
      let ok = ref true in
      List.iter
        (fun d ->
          Engine.spawn e (fun () ->
              Resource.with_resource r (fun () ->
                  incr inside;
                  if !inside > 1 then ok := false;
                  Engine.delay d;
                  decr inside)))
        durations;
      Engine.run e;
      !ok)

(* --- Eventq: the engine's monomorphic 4-ary heap --- *)

let noop_slot pid = { Eventq.act = Eventq.Noop; pid; name = "" }

let prop_eventq_pop_sorted =
  QCheck.Test.make ~name:"eventq pops in nondecreasing time order" ~count:200
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun ts ->
      let q = Eventq.create () in
      List.iteri (fun i t -> Eventq.push q ~time:t (noop_slot i)) ts;
      let rec drain prev =
        if Eventq.is_empty q then true
        else begin
          let tm = Eventq.min_time q in
          ignore (Eventq.pop q);
          tm >= prev && drain tm
        end
      in
      drain neg_infinity)

let prop_eventq_fifo_ties =
  QCheck.Test.make ~name:"eventq breaks equal-time ties FIFO" ~count:200
    QCheck.(small_list (int_bound 3))
    (fun buckets ->
      (* many pushes land on the same few timestamps; within each
         timestamp the pids (= push order) must come out ascending *)
      let q = Eventq.create () in
      List.iteri (fun i b -> Eventq.push q ~time:(float_of_int b) (noop_slot i)) buckets;
      let last_pid = Hashtbl.create 4 in
      let rec drain ok =
        if Eventq.is_empty q then ok
        else begin
          let tm = Eventq.min_time q in
          let s = Eventq.pop q in
          let fifo =
            match Hashtbl.find_opt last_pid tm with
            | Some p -> s.Eventq.pid > p
            | None -> true
          in
          Hashtbl.replace last_pid tm s.Eventq.pid;
          drain (ok && fifo)
        end
      in
      drain true)

let prop_run_until_boundary =
  QCheck.Test.make ~name:"run_until executes exactly the events at or before the limit"
    ~count:100
    QCheck.(
      pair (float_bound_inclusive 20.0) (list_of_size Gen.(1 -- 20) (float_bound_inclusive 3.0)))
    (fun (limit, ds) ->
      let e = Engine.create () in
      let hits = ref 0 in
      Engine.spawn e (fun () ->
          List.iter
            (fun d ->
              Engine.delay d;
              incr hits)
            ds);
      Engine.run_until e limit;
      (* the engine accumulates the same floats in the same order, so
         this prefix count is exact, not within-epsilon *)
      let rec expected acc n = function
        | [] -> n
        | d :: rest ->
            let acc = acc +. d in
            if acc <= limit then expected acc (n + 1) rest else n
      in
      let at_limit = !hits = expected 0.0 0 ds && Engine.now e = limit in
      Engine.run e;
      at_limit && !hits = List.length ds)

let props =
  [
    prop_delays_accumulate;
    prop_resource_mutual_exclusion;
    prop_eventq_pop_sorted;
    prop_eventq_fifo_ties;
    prop_run_until_boundary;
  ]

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
        Alcotest.test_case "spawn order at same time" `Quick test_zero_delay_and_order;
        Alcotest.test_case "interleaving" `Quick test_interleaving;
        Alcotest.test_case "run_until" `Quick test_run_until;
        Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
        Alcotest.test_case "double wake harmless" `Quick test_double_wake_harmless;
        Alcotest.test_case "blocked process count" `Quick test_blocked_processes;
        Alcotest.test_case "errors keep their backtrace" `Quick test_backtrace_survives_run;
      ] );
    ( "sim.condvar",
      [
        Alcotest.test_case "broadcast wakes all" `Quick test_condvar_broadcast;
        Alcotest.test_case "signal wakes one" `Quick test_condvar_signal_one;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "serialises unit resource" `Quick test_resource_serialises;
        Alcotest.test_case "capacity 2 overlaps" `Quick test_resource_capacity2;
        Alcotest.test_case "handoff is FIFO (no steal)" `Quick test_resource_no_steal;
        Alcotest.test_case "utilization accounting" `Quick test_resource_utilization;
        Alcotest.test_case "release unheld raises" `Quick test_resource_release_unheld;
      ] );
    ( "sim.mailbox",
      [
        Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
        Alcotest.test_case "try_recv" `Quick test_mailbox_try_recv;
      ] );
    ("sim.stats", [ Alcotest.test_case "moments" `Quick test_stats_moments ]);
    ("sim.properties", List.map QCheck_alcotest.to_alcotest props);
  ]
