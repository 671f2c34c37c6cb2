(** One run directory: the recorder a harness installs around a
    simulated run. It owns every recording plane and writes [trace.json]
    ({!Sim.Trace}), [metrics.json] (the registry at shutdown),
    [profile.json] ({!Sim.Ledger}), [snapshots.csv] (the registry every
    {!snapshot_period}), [decisions.ndjson] ({!Decision}, replayed
    through {!Shadow} policies when given), [host.json] (CPU seconds and
    GC words), [manifest.json] (schema, argv, sim seconds, events
    retired, files) and, with SLOs, one [blackbox/] bundle per alert
    ({!Health}, {!Sim.Flight}). Planes only observe: a recorded run
    simulates exactly what the same run without a recorder does.

    Call {!start} before the instance is built (so its format is
    traced), {!attach} once its metrics registry exists, {!stop} from
    the main process in place of the service shutdown, and {!finish}
    after [Sim.Engine.run] returns. *)

type t

val snapshot_period : float
(** 60 simulated seconds. *)

val decision_window : float
(** 1800 simulated seconds: a re-access this soon after a demotion or an
    eviction counts as a mistake or a regret. *)

val start :
  ?slo:Health.objective list -> ?shadows:Shadow.spec list -> dir:string -> Sim.Engine.t -> t

val attach : t -> metrics:Sim.Metrics.t -> unit
val health : t -> Health.t option
val shadows : t -> Shadow.t option

val stop : t -> shutdown:(unit -> unit) -> unit
(** Writes the decision log and closes the observatory (read
    {!Decision.sli} before), runs [shutdown], stops the other planes and
    writes [trace.json] and [metrics.json]. *)

type host = {
  cpu_s : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

val finish : t -> host
(** Writes the rest and closes the ledger (read {!Sim.Ledger.summary}
    before), prints the file list and two [gc-stats:] lines, and returns
    the host cost since {!start}. *)
