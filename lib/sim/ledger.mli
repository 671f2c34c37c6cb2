(** Request-scoped cost attribution: wait-profile ledgers.

    Each in-flight request (demand fetch, prefetch, write-out) carries a
    ledger; every blocking point on its path charges the virtual time it
    cost to a category. Simulated time only advances inside
    [Engine.delay]/[Engine.suspend], so charging every block point makes
    the per-category charges of a request sum exactly to its end-to-end
    latency — "why did this fetch take 19 s" becomes a table.

    Like {!Trace} and {!Fault} this layer is ambient: {!install} at most
    one registry per run; with none installed (or on the {!none} ledger)
    every operation is a free no-op. Activation is keyed by the running
    process's name ({!Engine.current_process}): a worker wraps the phase
    it executes in {!with_active} and device-layer instrumentation
    ({!charge_active}/{!charged_active}) charges whatever request that
    process is currently serving. *)

type category =
  | Queue_wait  (** time parked in service/work queues, incl. retry backoff *)
  | Robot_swap  (** media-changer arm: robot arbitration + the swap itself *)
  | Seek_rotate  (** head positioning on drive or disk *)
  | Transfer  (** data moving at device rate *)
  | Bus_contention  (** waiting for the SCSI bus *)
  | Cache_disk_write  (** the fetch's landing phase on the cache disk *)
  | Lock_wait  (** internal mutexes (jukebox arbitration) *)
  | Tertiary_write
      (** the write-out's tertiary phase: everything from claiming the
          drive to the last block on media, including written-prefix
          stalls waiting for the staging-disk read to catch up *)

val categories : category list
val category_name : category -> string

(** {1 Per-request ledgers} *)

type t

val none : t
(** The inert ledger: every operation on it is a no-op. Request carriers
    (cache lines) hold this when no registry was installed at open. *)

val is_real : t -> bool

val install : ?metrics:Metrics.t -> Engine.t -> unit
(** Installs the ambient registry. Closed ledgers fold into per-class
    [ledger.<class>.<category>_s] histograms of [metrics] (a private
    registry when omitted). *)

val uninstall : unit -> unit
val enabled : unit -> bool

val open_request : kind:string -> t
(** New ledger for a request of class [kind] (e.g. ["demand_fetch"]),
    opened at the current virtual time; {!none} when not installed. *)

val id : t -> int
val kind : t -> string
val opened_at : t -> float

val charge : t -> category -> float -> unit
val charge_since : t -> category -> float -> unit
(** [charge_since l cat t0] charges [now - t0]. *)

val charged : t -> category -> float
val total : t -> float

val mark_first_block : t -> unit
(** Records time-to-first-usable-block (streaming fetch); idempotent. *)

val close : t -> unit
(** Folds the ledger into the per-class aggregate and histograms;
    idempotent. Success and failure paths both close. *)

val drop : t -> unit
(** Discards without folding (cancelled prefetches). *)

(** {1 Ambient activation} *)

val with_active : ?redirect:category -> t -> (unit -> 'a) -> 'a
(** Binds [t] as the running process's active ledger for the dynamic
    extent of [f]. With [redirect], every ambient charge inside is
    re-aimed at that category regardless of what the instrumentation
    point said — used for the fetch's cache-disk landing phase, whose
    seeks and transfers are all [Cache_disk_write] blame. *)

val charge_active : category -> float -> unit
(** Charges the active ledger of the running process, if any. *)

val charged_active : category -> (unit -> 'a) -> 'a
(** Runs [f] and charges its virtual duration to the running process's
    active ledger, if any. *)

val charged_delay : category -> float -> unit
(** [charged_delay cat d] is [charged_active cat (fun () -> Engine.delay d)]
    without the closure when no registry is installed: the per-request
    form the device models use. *)

(** {1 Aggregate summary and export} *)

type cat_stat = { cat : category; total_s : float; count : int; p95_s : float }
(** [count] = closed requests that charged the category; [p95_s] over
    per-request charge totals. *)

type class_summary = {
  cls : string;
  requests : int;
  e2e_total_s : float;
  e2e_p95_s : float;
  first_blocks : int;
  first_block_total_s : float;
  by_category : cat_stat list;  (** blame-ranked, highest total first *)
}

val summary : unit -> class_summary list
(** One entry per request class (sorted by name), from closed ledgers;
    [] when not installed. *)

val open_requests : unit -> int

val iter_open : (t -> unit) -> unit
(** Visits every in-flight (opened, not yet closed/dropped) ledger in
    id order — the deadline watchdog's scan and the flight recorder's
    open-request dump. *)

val wall : unit -> float

val to_json : unit -> string
(** Schema ["highlight-profile/v1"]: wall time, per-class request
    counts, e2e/first-block totals, per-category blame with p95 and the
    blame-ranked [critical_path]. *)
