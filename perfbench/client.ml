(* The closed-loop client: the [bench-main] process issues one operation,
   waits for it to return, checks it against the model, and only then
   issues the next. Latencies are simulated seconds per call. *)

type t = {
  engine : Sim.Engine.t;
  model : Model.t;
  reads : Metric.Samples.t;
  writes : Metric.Samples.t;
  mutable attempted : int;
  mutable failed : int;
  mutable bytes_written : int;
  mutable problems : string list;  (** the first few failures, newest first *)
}

let create engine =
  {
    engine;
    model = Model.create ();
    reads = Metric.Samples.create ();
    writes = Metric.Samples.create ();
    attempted = 0;
    failed = 0;
    bytes_written = 0;
    problems = [];
  }

(* Set-up operations are checked like any other, but only the timed
   phase's latencies are reported. *)
let clear_samples t =
  Metric.Samples.clear t.reads;
  Metric.Samples.clear t.writes

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if List.length t.problems < 8 then t.problems <- msg :: t.problems)
    fmt

(* One user read; [f] performs it. A wrong byte or an exception is a
   failed operation. *)
let read t path ~off ~len f =
  t.attempted <- t.attempted + 1;
  let t0 = Sim.Engine.now t.engine in
  match f () with
  | got ->
      Metric.Samples.add t.reads (Sim.Engine.now t.engine -. t0);
      if not (Model.matches t.model path ~off ~len got) then
        fail t "content mismatch: %s off %d len %d" path off len
  | exception e -> fail t "read %s off %d len %d: %s" path off len (Printexc.to_string e)

(* One user write; [f] performs it. On [No_space] each [recover] step
   runs in turn before a retry; a [No_space] that survives them all, or
   any other exception, is a failed operation. The model takes the data
   either way, so one lost write is counted once, not again on every
   later read of its range. *)
let write t path ~off data ?(recover = []) f =
  t.attempted <- t.attempted + 1;
  let t0 = Sim.Engine.now t.engine in
  let rec attempt = function
    | [] -> f ()
    | r :: rest -> ( try f () with Lfs.Fs.No_space -> r (); attempt rest)
  in
  (match attempt recover with
  | () ->
      Metric.Samples.add t.writes (Sim.Engine.now t.engine -. t0);
      t.bytes_written <- t.bytes_written + Bytes.length data
  | exception e -> fail t "write %s off %d len %d: %s" path off (Bytes.length data) (Printexc.to_string e));
  Model.write t.model path ~off data

(* Any other operation the client waits on (delete, migrate, eject). *)
let op t what f =
  t.attempted <- t.attempted + 1;
  try f () with e -> fail t "%s: %s" what (Printexc.to_string e)
