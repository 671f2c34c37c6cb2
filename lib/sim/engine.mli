(** Discrete-event simulation engine.

    Simulator processes are coroutines implemented with effect handlers:
    a process runs until it performs {!delay} or {!suspend}, at which
    point control returns to the scheduler. Time is virtual (seconds as
    [float]); it advances only between events, so a simulated 45-second
    tape load costs no wall-clock time.

    The engine replaces the kernel context of the original HighLight: the
    cleaner, migrator, service and I/O processes of the paper each run as
    one simulator process, and device models charge their service times
    with {!delay}. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the event queue (see {!Eventq.create}) for
    runs known to keep thousands of processes in flight. *)

val now : t -> float
(** Current virtual time in seconds. *)

val clock : t -> Eventq.clock
(** The engine's live clock record, for accounting on the per-request
    path: reading its [time] field into a float record involves no call
    and no float box, which {!now} costs wherever it is not inlined.
    Read it only; the engine alone advances it. *)

val schedule : t -> after:float -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] on the scheduler [after] virtual
    seconds from now (clamped at 0). Unlike {!spawn}, [f] is a plain
    callback, not a coroutine: it must not perform {!delay} or
    {!suspend}. This is the cheap primitive for one-shot timers and
    self-rescheduling ticks — no fiber, no handler, one heap event. *)

type timer
(** A reusable one-shot timer: its event slot is allocated once and
    re-pushed on every {!arm}, so a recurring tick allocates nothing
    per firing (unlike {!schedule}, which builds a fresh slot). *)

val timer : t -> (unit -> unit) -> timer
(** The callback runs on the scheduler like {!schedule}'s and must not
    perform {!delay}/{!suspend}. It may re-{!arm} its own timer. *)

val arm : t -> timer -> after:float -> unit
(** Queues the timer to fire [after] virtual seconds from now (clamped
    at 0). Arming an already-armed timer queues a second firing. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Registers a process to start at the current virtual time. May be
    called from inside or outside a running process. The [name] labels
    the process in {!blocked_process_names} and {!current_process}
    (e.g. trace track labels); unnamed processes get ["proc-<n>"]. *)

val current_process : t -> string option
(** Name of the process currently executing on the virtual CPU, or
    [None] between events / outside [run]. *)

val current_name : t -> string
(** Allocation-free variant of {!current_process} for hot
    instrumentation: the running process's name, or ["main"] between
    events / outside [run]. *)

val delay : float -> unit
(** Blocks the calling process for the given virtual duration. Must be
    called from inside a process. Negative durations are clamped to 0. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process and hands a wake-up
    function to [register]. Calling the wake-up function schedules the
    process to resume at the then-current virtual time; calling it more
    than once is harmless. This is the primitive under condition
    variables, resources and mailboxes. *)

val run : t -> unit
(** Executes events until none remain. Parked processes whose wake-up is
    never called are abandoned (a deadlocked process does not block
    [run]). *)

val run_until : t -> float -> unit
(** Executes events with timestamps [<= limit], then sets the clock to
    [limit]. *)

val blocked_processes : t -> int
(** Number of processes that were suspended and have not yet resumed or
    finished; nonzero after [run] indicates a lost wake-up or an
    intentionally infinite server loop. *)

val blocked_process_names : t -> string list
(** Names of the processes counted by {!blocked_processes}, sorted —
    the first question to ask of a deadlocked run. *)

val events_retired : t -> int
(** Total events executed by [run]/[run_until] since [create] — the
    denominator for events/sec and words/event measurements. *)

val pending_events : t -> int
(** Events currently queued. From inside a scheduler callback this
    excludes the event being executed, so a periodic tick observing 0
    pending with {!blocked_processes} > 0 knows it alone is keeping the
    simulation alive — the deadlock signature the health plane's stall
    detector keys on. *)

val set_drain_watcher : t -> (string list -> unit) option -> unit
(** Installs (or clears) a callback invoked by {!run} the first time the
    event queue drains while suspended processes remain — the moment a
    deadlock would otherwise end the run silently. The watcher receives
    {!blocked_process_names} and is disarmed before it runs (it fires at
    most once per installation); it may schedule further events, which
    [run] will then execute. *)
