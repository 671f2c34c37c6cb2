(** Deterministic fault injection across the storage hierarchy.

    Tertiary media and robotics are not just slow, they are unreliable:
    media errors, wedged drives, stuck robot arms and SCSI bus resets
    are operational facts of jukebox storage (paper §8.2 on media
    failure; the same reality drives the retry/failover machinery of
    every production HSM). This module makes failure a first-class,
    scripted, reproducible part of the simulation.

    A {e fault plan} is a list of rules. Each rule names a {e site} —
    the same track name the device already uses for tracing
    ("disk:rz57", "hp6300:drive0", "hp6300:robot", "scsi:scsi0") — an
    operation filter, a {e trigger} (a sim-time window, an op-count, a
    seeded per-op probability, or every op), the fault {e kind} and its
    persistence. Like {!Trace}, one plan at a time is ambient:
    {!install} arms it and every device consults {!check} at each
    operation; with no plan installed the check is one pointer read.

    Transient faults abort the single operation (the service layer
    retries). A [Permanent] rule, once fired, marks the site dead:
    every later operation against it fails immediately, and
    {!site_dead} lets device models route around it (the jukebox stops
    assigning volumes to a dead drive, which is what makes service-layer
    retry an automatic drive failover). Hangs charge bounded sim-time
    instead of failing, so nothing in the simulation can block forever.

    Every injected fault emits a {!Trace} instant on the site's track
    and counts in the registry handed to {!install} (["faults.injected"],
    ["faults.<kind>"]), so existing observability shows failures. *)

type op = Read | Write | Swap | Transfer

type kind =
  | Media_error  (** the transfer fails (bad block / dropped frame) *)
  | Device_hang of float
      (** the operation stalls for the span (sim-seconds), then
          proceeds; when the site is dead it fails like the others *)
  | Robot_jam  (** a changer swap fails *)
  | Bus_reset  (** a bus transfer is aborted *)

type persistence = Transient | Permanent

type descriptor = {
  site : string;
  op : op;
  kind : kind;
  persistence : persistence;
}

exception Injected of descriptor
(** Raised by {!check} at the faulted operation. Device callers let it
    propagate; the service layer classifies it (transient → retry with
    backoff, permanent → failover or EIO). *)

type trigger =
  | Window of float * float
      (** fires on the first matching op with sim-time in [[t0, t1)];
          exactly once *)
  | Op_count of int  (** fires on the Nth matching op (1-based); once *)
  | Probability of float  (** per-op chance, drawn from the plan's seed *)
  | Always  (** every matching op (tests, dead-device setups) *)

type rule = {
  r_site : string;
      (** exact site name, or a prefix glob ending in ['*']
          (["hp6300:drive*"]); ["*"] matches every site *)
  r_ops : op list;  (** empty = any operation *)
  r_trigger : trigger;
  r_kind : kind;
  r_persistence : persistence;
}

type plan

val plan : ?seed:int -> rule list -> plan
(** Builds a plan. [seed] (default 1) feeds the probabilistic triggers:
    each rule derives its own stream, so two runs with the same seed
    and the same operation sequence inject identical faults. *)

val rules : plan -> rule list
val injected : plan -> int
(** Faults fired so far (not counting re-failures of dead sites). *)

val injected_by_site : plan -> (string * int) list
(** Per-site fire counts, sorted by site name. *)

(** {1 Ambient installation} *)

val install : Engine.t -> ?metrics:Metrics.t -> plan -> unit
(** Arms [plan] against [engine]'s clock. At most one plan is ambient;
    installing replaces the previous one. [metrics] receives the fault
    counters. *)

val clear : unit -> unit
val active : unit -> bool

val check : site:string -> op -> unit
(** The device-side consultation point. With no ambient plan: a no-op.
    Otherwise: if [site] is dead, raises {!Injected} immediately; else
    evaluates the rules in order and fires the first whose trigger
    matches — hanging ([Engine.delay], must be called from a simulator
    process) or raising {!Injected}. *)

val site_dead : string -> bool
(** True once a [Permanent] rule has fired for the site. Device models
    use it to exclude dead units from arbitration (e.g. drive choice),
    which turns a retry into a failover. *)

(** {1 Plan DSL}

    Line-oriented text, one rule per line; ['#'] starts a comment and
    blank lines are ignored. A line [seed=N] sets the plan seed.

    {v
    # site            ops         trigger         kind          persistence
    hp6300:drive*     read        prob=0.05       media_error   transient
    hp6300:robot      swap        window=100..200 robot_jam     transient
    scsi:scsi0        xfer        op=7            bus_reset     transient
    disk:rz57         read,write  prob=0.01       hang=2.5      transient
    hp6300:drive1     *           op=3            media_error   permanent
    v}

    [ops] is [*] or a comma list of [read|write|swap|xfer]; [trigger]
    is [window=T0..T1], [op=N], [prob=P] or [always]; [kind] is
    [media_error], [robot_jam], [bus_reset] or [hang=SPAN];
    [persistence] is [transient] (default, may be omitted) or
    [permanent]. *)

val parse : string -> (plan, string) result
(** Parses the DSL text (e.g. the contents of a [--faults] file) into a
    plan, honoring any [seed=] line. *)

val rule_to_string : rule -> string
(** Renders a rule back into DSL syntax (debug/round-trip tests). *)

val descriptor_to_string : descriptor -> string
(** Human-readable "media_error on hp6300:drive0 during read". *)
