(* Fault injection (Sim.Fault): the plan DSL and trigger machinery
   driven in isolation, then the service layer's retry, drive failover
   and graceful degradation when a live hierarchy runs under a plan.
   Every test clears the ambient plan on the way out so a failure in
   one case cannot leak faults into the next. *)

open Highlight
open Lfs

let check = Alcotest.check
let with_plan f = Fun.protect ~finally:Sim.Fault.clear f

(* Returns the engine too: the shutdown-drain test audits blocked
   processes after Engine.run comes back. *)
let in_sim_e f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e (fun () -> result := Some (f e));
  Sim.Engine.run e;
  match !result with Some r -> (r, e) | None -> Alcotest.fail "sim process did not finish"

let in_sim f = fst (in_sim_e f)
let bytes_pattern n seed = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xff))

let make_world ?(nsegs = 64) ?(cache_segs = 12) ?(io_mode = State.Pipelined) engine =
  let prm = Param.for_tests ~seg_blocks:16 ~nsegs () in
  let store =
    Device.Blockstore.create ~block_size:prm.Param.block_size
      ~nblocks:(Layout.disk_blocks prm)
  in
  let jb =
    Device.Jukebox.create engine ~drives:2 ~nvolumes:4
      ~vol_capacity:(8 * prm.Param.seg_blocks) ~media:Device.Jukebox.hp6300_platter
      ~changer:Device.Jukebox.hp6300_changer "jb"
  in
  let fp = Footprint.create ~seg_blocks:prm.Param.seg_blocks ~segs_per_volume:8 [ jb ] in
  let hl = Hl.mkfs engine prm ~disk:(Dev.of_store store) ~fp ~cache_segs ~io_mode () in
  (hl, fp)

let seg_bytes = 16 * 4096

let parse_ok text =
  match Sim.Fault.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.fail ("fault plan did not parse: " ^ msg)

(* Stage a file onto a chosen tertiary volume and drop the cached copy,
   so the next read must demand-fetch through the jukebox. *)
let stage_out hl path data ~vol =
  let st = Hl.state hl in
  Hl.write_file hl path data;
  Fs.checkpoint (Hl.fs hl);
  st.State.restrict_volume <- Some vol;
  ignore (Migrator.migrate_paths st [ path ]);
  st.State.restrict_volume <- None;
  Hl.eject_tertiary_copies hl ~paths:[ path ]

(* ---------- DSL ---------- *)

let test_parse_roundtrip () =
  let text =
    "seed=7\n\
     # jukebox drives flake on one read in twenty\n\
     hp6300:drive* read prob=0.05 media_error transient\n\
     hp6300:robot swap window=100..200 robot_jam transient\n\
     scsi:scsi0 xfer op=3 bus_reset permanent\n\
     disk:rz57 read,write always hang=2.5 transient\n"
  in
  let p = parse_ok text in
  let printed = List.map Sim.Fault.rule_to_string (Sim.Fault.rules p) in
  check Alcotest.int "4 rules" 4 (List.length printed);
  (* the printed form is itself valid DSL and reparses to the same rules *)
  let p2 = parse_ok (String.concat "\n" printed) in
  check
    (Alcotest.list Alcotest.string)
    "round trip" printed
    (List.map Sim.Fault.rule_to_string (Sim.Fault.rules p2));
  check Alcotest.bool "glob site preserved" true
    (List.exists (fun r -> r.Sim.Fault.r_site = "hp6300:drive*") (Sim.Fault.rules p2))

let test_parse_rejects_garbage () =
  let bad =
    [
      "dev read prob=1.5 media_error transient";
      "dev read op=0 media_error transient";
      "dev frob always media_error transient";
      "dev read window=9..3 robot_jam transient";
      "dev read always nonsense transient";
      "dev read always media_error sometimes";
    ]
  in
  List.iter
    (fun line ->
      match Sim.Fault.parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad rule: " ^ line))
    bad

(* ---------- triggers ---------- *)

let test_window_fires_once () =
  in_sim (fun engine ->
      with_plan (fun () ->
          let p = parse_ok "dev read window=5..10 media_error transient" in
          Sim.Fault.install engine p;
          let fired = ref 0 in
          for _ = 1 to 20 do
            (try Sim.Fault.check ~site:"dev" Sim.Fault.Read
             with Sim.Fault.Injected _ -> incr fired);
            Sim.Engine.delay 1.0
          done;
          check Alcotest.int "window fires exactly once" 1 !fired;
          check Alcotest.int "plan counts it" 1 (Sim.Fault.injected p);
          check
            (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
            "per-site count"
            [ ("dev", 1) ]
            (Sim.Fault.injected_by_site p)))

let test_op_count_fires_on_nth () =
  in_sim (fun engine ->
      with_plan (fun () ->
          let p = parse_ok "dev * op=3 media_error transient" in
          Sim.Fault.install engine p;
          let fire_ops = ref [] in
          for i = 1 to 10 do
            try Sim.Fault.check ~site:"dev" (if i mod 2 = 0 then Sim.Fault.Write else Sim.Fault.Read)
            with Sim.Fault.Injected _ -> fire_ops := i :: !fire_ops
          done;
          check (Alcotest.list Alcotest.int) "fires exactly once, on op 3" [ 3 ] !fire_ops))

let test_glob_matches_prefix_only () =
  in_sim (fun engine ->
      with_plan (fun () ->
          Sim.Fault.install engine (parse_ok "jb:drive* read always media_error transient");
          check Alcotest.bool "jb:drive1 faulted" true
            (match Sim.Fault.check ~site:"jb:drive1" Sim.Fault.Read with
            | () -> false
            | exception Sim.Fault.Injected _ -> true);
          (* different site and filtered-out op both pass untouched *)
          Sim.Fault.check ~site:"disk:rz57" Sim.Fault.Read;
          Sim.Fault.check ~site:"jb:drive0" Sim.Fault.Write))

let test_probability_reproducible () =
  let run () =
    in_sim (fun engine ->
        with_plan (fun () ->
            let p = parse_ok "seed=42\ndev read prob=0.3 media_error transient" in
            Sim.Fault.install engine p;
            let fires = ref [] in
            for i = 1 to 200 do
              try Sim.Fault.check ~site:"dev" Sim.Fault.Read
              with Sim.Fault.Injected _ -> fires := i :: !fires
            done;
            List.rev !fires))
  in
  let a = run () and b = run () in
  check Alcotest.bool "some faults fired" true (a <> []);
  check (Alcotest.list Alcotest.int) "same seed, same fire sequence" a b

let test_permanent_kills_site () =
  in_sim (fun engine ->
      with_plan (fun () ->
          Sim.Fault.install engine (parse_ok "dev * op=1 media_error permanent");
          check Alcotest.bool "site starts alive" false (Sim.Fault.site_dead "dev");
          (try Sim.Fault.check ~site:"dev" Sim.Fault.Read
           with Sim.Fault.Injected d ->
             check Alcotest.bool "descriptor is permanent" true
               (d.Sim.Fault.persistence = Sim.Fault.Permanent));
          check Alcotest.bool "site dead after firing" true (Sim.Fault.site_dead "dev");
          (* every later op fails outright, whatever the kind filter *)
          check Alcotest.bool "dead site rejects writes too" true
            (match Sim.Fault.check ~site:"dev" Sim.Fault.Write with
            | () -> false
            | exception Sim.Fault.Injected _ -> true)))

let test_hang_charges_sim_time () =
  in_sim (fun engine ->
      with_plan (fun () ->
          Sim.Fault.install engine (parse_ok "dev read always hang=2.5 transient");
          let t0 = Sim.Engine.now engine in
          (* a hang delivers as a delay, not an exception *)
          Sim.Fault.check ~site:"dev" Sim.Fault.Read;
          check (Alcotest.float 1e-9) "stalled 2.5 sim-seconds" 2.5
            (Sim.Engine.now engine -. t0)))

(* ---------- the service layer under a plan ---------- *)

(* Transient media errors on every drive op: reads and write-outs are
   retried with backoff and the data always comes back byte-identical,
   with the retries visible in the stats. *)
let run_transient_retries io_mode () =
  in_sim (fun engine ->
      with_plan (fun () ->
          let hl, _fp = make_world ~io_mode engine in
          let a = bytes_pattern (3 * seg_bytes) 3 in
          Sim.Fault.install engine
            ~metrics:(Hl.metrics hl)
            (parse_ok "seed=5\njb:drive* read,write prob=0.2 media_error transient");
          stage_out hl "/a" a ~vol:0;
          let got = Hl.read_file hl "/a" () in
          check Alcotest.bool "/a identical" true (Bytes.equal got a);
          let s = Hl.stats hl in
          check Alcotest.bool "faults were injected" true (s.Hl.faults_injected > 0);
          check Alcotest.bool "retries happened" true (s.Hl.io_retries > 0);
          check Alcotest.int "no request failed" 0 s.Hl.io_failures;
          check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl)))

(* A drive that dies permanently mid-run: the retry lands on the
   sibling drive (failover), both files still read back byte-identical
   and no request surfaces a failure. *)
let test_drive_failover () =
  in_sim (fun engine ->
      with_plan (fun () ->
          let hl, _fp = make_world engine in
          let a = bytes_pattern (2 * seg_bytes) 3 in
          let b = bytes_pattern (2 * seg_bytes) 5 in
          stage_out hl "/a" a ~vol:0;
          stage_out hl "/b" b ~vol:1;
          (* armed only now: the migration ran clean, the read-back
             kills drive1 on its first operation *)
          Sim.Fault.install engine
            ~metrics:(Hl.metrics hl)
            (parse_ok "jb:drive1 * op=1 media_error permanent");
          let done_cv = Sim.Condvar.create () in
          let remaining = ref 2 in
          let got_a = ref Bytes.empty and got_b = ref Bytes.empty in
          let reader name path cell =
            Sim.Engine.spawn engine ~name (fun () ->
                cell := Hl.read_file hl path ();
                decr remaining;
                Sim.Condvar.broadcast done_cv)
          in
          reader "reader-a" "/a" got_a;
          reader "reader-b" "/b" got_b;
          while !remaining > 0 do
            Sim.Condvar.wait done_cv
          done;
          check Alcotest.bool "/a identical" true (Bytes.equal !got_a a);
          check Alcotest.bool "/b identical" true (Bytes.equal !got_b b);
          check Alcotest.bool "drive1 is dead" true (Sim.Fault.site_dead "jb:drive1");
          check Alcotest.bool "drive0 survives" false (Sim.Fault.site_dead "jb:drive0");
          let s = Hl.stats hl in
          check Alcotest.bool "the fault fired" true (s.Hl.faults_injected >= 1);
          check Alcotest.int "failover absorbed it: no failures" 0 s.Hl.io_failures;
          check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl)))

(* Every drive dead: the fetch exhausts its retries and the reader gets
   State.Io_error instead of data or a hang — and a shutdown afterwards
   drains the service layer completely, leaving no process parked.
   (Each drive needs its own rule: Op_count fires once per rule.) *)
let run_all_drives_dead io_mode () =
  let (), e =
    in_sim_e (fun engine ->
        with_plan (fun () ->
            let hl, _fp = make_world ~io_mode engine in
            let a = bytes_pattern (2 * seg_bytes) 9 in
            stage_out hl "/a" a ~vol:0;
            Sim.Fault.install engine
              ~metrics:(Hl.metrics hl)
              (parse_ok
                 "jb:drive0 * op=1 media_error permanent\n\
                  jb:drive1 * op=1 media_error permanent");
            let failed = ref false in
            (try ignore (Hl.read_file hl "/a" ())
             with State.Io_error _ -> failed := true);
            check Alcotest.bool "read surfaced EIO" true !failed;
            let s = Hl.stats hl in
            check Alcotest.bool "request failure recorded" true (s.Hl.io_failures > 0);
            (* degradation is not corruption: disk-resident data and the
               fs invariants are untouched *)
            check (Alcotest.list Alcotest.string) "invariants" [] (Hl.check hl);
            Hl.shutdown_service hl))
  in
  check
    (Alcotest.list Alcotest.string)
    "no blocked processes" []
    (Sim.Engine.blocked_process_names e);
  check Alcotest.int "blocked count" 0 (Sim.Engine.blocked_processes e)

(* ---------- properties ---------- *)

(* Whatever the seed and (bounded) fault rate, transient media errors
   never corrupt a demand-fetched read. *)
let prop_transient_reads_identical =
  QCheck.Test.make ~name:"transient media errors never corrupt reads" ~count:10
    QCheck.(pair (int_bound 1000) (int_range 1 30))
    (fun (seed, prob_pct) ->
      let prob = float_of_int prob_pct /. 100.0 in
      in_sim (fun engine ->
          with_plan (fun () ->
              let hl, _fp = make_world engine in
              let a = bytes_pattern (2 * seg_bytes) 3 in
              stage_out hl "/a" a ~vol:0;
              (* every fault costs the fetch one attempt, even after the
                 stream made progress, so at up to 30% per chunk the
                 default 8 attempts run out for about 1 draw in 150 — an
                 honest EIO, not the corruption this property is about;
                 16 attempts never ran out over 1600 draws *)
              (Hl.state hl).State.retry.State.max_attempts <- 16;
              Sim.Fault.install engine
                ~metrics:(Hl.metrics hl)
                (parse_ok
                   (Printf.sprintf "seed=%d\njb:drive* read prob=%.4f media_error transient"
                      seed prob));
              Bytes.equal (Hl.read_file hl "/a" ()) a
              && (Hl.stats hl).Hl.io_failures = 0)))

(* The same seed replays the same faults: two full runs agree on every
   fault and retry counter. *)
let prop_same_seed_same_counters =
  QCheck.Test.make ~name:"same seed reproduces fault and retry counters" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let run () =
        in_sim (fun engine ->
            with_plan (fun () ->
                let hl, _fp = make_world engine in
                let a = bytes_pattern (2 * seg_bytes) 7 in
                stage_out hl "/a" a ~vol:0;
                Sim.Fault.install engine
                  ~metrics:(Hl.metrics hl)
                  (parse_ok
                     (Printf.sprintf "seed=%d\njb:drive* read prob=0.15 media_error transient"
                        seed));
                ignore (Hl.read_file hl "/a" ());
                let s = Hl.stats hl in
                (s.Hl.faults_injected, s.Hl.io_retries, s.Hl.io_failures)))
      in
      run () = run ())

let props = [ prop_transient_reads_identical; prop_same_seed_same_counters ]

let suite =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "DSL round-trips through rule_to_string" `Quick test_parse_roundtrip;
        Alcotest.test_case "DSL rejects malformed rules" `Quick test_parse_rejects_garbage;
        Alcotest.test_case "window trigger fires exactly once" `Quick test_window_fires_once;
        Alcotest.test_case "op-count trigger fires on the Nth op" `Quick
          test_op_count_fires_on_nth;
        Alcotest.test_case "glob sites match by prefix" `Quick test_glob_matches_prefix_only;
        Alcotest.test_case "probabilistic trigger is seed-reproducible" `Quick
          test_probability_reproducible;
        Alcotest.test_case "permanent fault kills the site" `Quick test_permanent_kills_site;
        Alcotest.test_case "hang charges bounded sim-time" `Quick test_hang_charges_sim_time;
      ] );
    ( "fault.service",
      [
        Alcotest.test_case "transient errors retried (pipelined)" `Quick
          (run_transient_retries State.Pipelined);
        Alcotest.test_case "transient errors retried (serial)" `Quick
          (run_transient_retries State.Serial);
        Alcotest.test_case "dead drive fails over to sibling" `Quick test_drive_failover;
        Alcotest.test_case "all drives dead: EIO + clean shutdown (pipelined)" `Quick
          (run_all_drives_dead State.Pipelined);
        Alcotest.test_case "all drives dead: EIO + clean shutdown (serial)" `Quick
          (run_all_drives_dead State.Serial);
      ]
      @ List.map QCheck_alcotest.to_alcotest props );
  ]
