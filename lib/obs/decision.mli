(** The migration observatory's decision-audit log.

    An ambient (install/uninstall, like {!Sim.Ledger}) bounded log of
    every policy decision the hierarchy makes: which files to demote,
    which cleaner victims to pick, which volume to erase, which cache
    line to evict. Each record carries the scored inputs (idle time,
    size, utilization, decayed temperature, age), the candidates the
    policy passed over, and the policy id — enough for a shadow policy
    to re-make the decision offline or online ({!Shadow}).

    Three closed-loop quality SLIs are tracked against what actually
    happened afterwards:

    - {b migration mistakes} — a demand fetch of a tertiary segment
      within [window] sim-seconds of its demotion ("oops, that file
      was hot");
    - {b eviction regret} — a cache line re-fetched within [window] of
      its eviction, attributed to the eviction policy that chose it;
    - {b cleaner write-amplification} — bytes copied forward per byte
      reclaimed, per victim-selection policy.

    Zero-cost-when-off discipline: every hot-path call site must guard
    with [if Decision.enabled () then ...] so the disabled observatory
    allocates nothing — [enabled] is a single flag load. *)

type site =
  | Automigrate  (** the automigrate daemon's acted-on file set *)
  | Stp_rank  (** a space-time-product selection *)
  | Namespace_rank  (** a namespace-unit selection *)
  | Clean_victims  (** disk cleaner victim choice *)
  | Tclean_volume  (** tertiary cleaner volume choice *)
  | Cache_evict  (** segment-cache eviction *)

val site_name : site -> string

type features = {
  idle : float;  (** now - atime (files) or now - last_use (lines) *)
  size : int;  (** bytes at stake: file size, live bytes, ... *)
  util : float;  (** segment utilization, or worthiness bit for lines *)
  temp : float;  (** decayed heat at decision time *)
  age : float;  (** now - lastmod / fetched_at / newest_mtime *)
}

val no_features : features

type candidate = {
  cid : int;  (** inum / segment / tindex / volume — the site's key *)
  label : string;  (** optional human name (e.g. namespace-unit path) *)
  members : int list;  (** constituent inums of a grouped candidate *)
  feats : features;
  cscore : float;  (** the policy's own score *)
}

val candidate :
  ?label:string -> ?members:int list -> ?feats:features -> ?score:float -> int -> candidate

type record = {
  seq : int;
  time : float;
  site : site;
  policy : string;
  budget : int;  (** byte target of a selection; 0 when not applicable *)
  chosen : candidate list;
  rejected : candidate list;  (** capped at [max_rejected], best first *)
}

(** {1 Lifecycle} *)

val install :
  ?cap:int ->
  ?max_rejected:int ->
  ?window:float ->
  ?half_life:float ->
  ?metrics:Sim.Metrics.t ->
  unit ->
  unit
(** Defaults: 4096-record ring, 32 rejected candidates per record, a
    1800 s mistake/regret window, one-hour heat half-life. When a
    metrics registry is given, obs.* counters are bumped there too so
    snapshots and exported metric files see the SLIs. *)

val uninstall : unit -> unit
val enabled : unit -> bool
val mistake_window : unit -> float

(** {1 Emission (call sites guard with [enabled])} *)

val emit :
  now:float ->
  site:site ->
  policy:string ->
  ?budget:int ->
  chosen:candidate list ->
  rejected:candidate list ->
  unit ->
  unit

(** {1 Heat} *)

val touch_file : now:float -> ?write:bool -> int -> unit
(** File read/write heat (writes weigh 2.0); also closes the loop on
    file-level demotion mistakes and feeds shadow counterfactuals. *)

val file_temp : now:float -> int -> float
val segment_temp : now:float -> int -> float

(** {1 Closed-loop SLI notes} *)

val note_segment_access : now:float -> miss:bool -> int -> unit
(** Every tertiary-read of a segment (by tindex). A miss is a demand
    fetch: checked against recent demotions (migration mistake) and
    recent evictions (eviction regret). *)

val note_segment_demoted : now:float -> int -> unit
val note_file_demoted : now:float -> inum:int -> bytes:int -> unit
val note_evicted : now:float -> policy:string -> int -> unit
val note_cleaned :
  policy:string -> segments:int -> bytes_moved:int -> bytes_reclaimed:int -> unit

val count_event : string -> unit
(** Bump a named counter on the installed metrics registry (no-op
    without one) — for rare-path visibility like cleaner stalls. *)

(** {1 Sinks (for the shadow evaluator)} *)

val add_sink : (record -> unit) -> unit
val add_file_access_sink : (now:float -> int -> unit) -> unit
val add_segment_access_sink : (now:float -> int -> unit) -> unit

(** {1 Reading the log} *)

type evict_sli = { ev_policy : string; ev_evictions : int; ev_regrets : int }

type clean_sli = {
  cl_policy : string;
  cl_passes : int;
  cl_segments : int;
  cl_copied_bytes : int;
  cl_reclaimed_bytes : int;
  cl_write_amp : float;  (** copied / reclaimed; 0 when nothing reclaimed *)
}

type sli = {
  decisions : int;
  dropped : int;
  seg_demotions : int;
  seg_mistakes : int;
  mistake_rate : float;  (** seg_mistakes / seg_demotions *)
  file_demotions : int;
  file_recalls : int;
  recalled_bytes : int;
  evictions : int;
  regrets : int;
  regret_rate : float;  (** regrets / evictions *)
  by_evict_policy : evict_sli list;
  by_clean_policy : clean_sli list;
}

val sli : unit -> sli option
(** [None] when not installed. *)

val records : unit -> record list
(** Oldest first. *)

val to_ndjson : unit -> string
(** One JSON object per line, oldest first. *)
