(** Directory of on-disk cache lines holding tertiary segments (paper
    §6.4). A line is a whole disk segment: either a read-only copy of a
    tertiary-resident segment (Resident) or a staging segment being
    assembled/awaiting copy-out (Staging → Staged_clean once safely on
    tertiary storage). Lines are pinned during I/O; unpinned read-only
    lines may be discarded at any time, since the tertiary copy
    survives.

    Eviction policies: LRU, uniform random, and the paper's §10
    "least-worthy" hybrid, where a line fetched but not re-referenced is
    sacrificed before lines that proved their worth. *)

type state =
  | Fetching  (** allocation done, tertiary read in flight *)
  | Resident  (** read-only copy, identical to tertiary *)
  | Staging  (** being assembled; the only copy — not evictable *)
  | Staged_clean  (** assembled and copied out; evictable *)
  | Partial
      (** the delivered valid-prefix of a failed/cancelled streaming
          fetch, kept servable in memory ([image] up to [valid_blocks];
          the disk segment is released, [disk_seg] = -1). Reads inside
          the prefix are hits; a read past it triggers a tail-only
          re-fetch that flips the line back to Fetching. Evictable. *)

type line = {
  mutable tindex : int;
  mutable disk_seg : int;
  mutable state : state;
  mutable pins : int;
  mutable last_use : float;
  mutable fetched_at : float;
  mutable worthy : bool;  (** re-referenced since fetch *)
  mutable image : Device.Blockstore.t option;
      (** in-memory segment image of a recent fetch, holding the pages
          the tertiary read shared: block reads are served from it
          without a disk pass while it lives (double buffering, paper
          §6.7); the service layer bounds how many stay attached and
          gives each back to the instance's pool
          ({!State.release_image}) *)
  mutable valid_blocks : int;
      (** streaming-fetch watermark: how many leading blocks of [image]
          hold real data. A streaming fetch advances it chunk by chunk
          (broadcasting [ready] each time) so waiters needing an early
          offset unblock before the whole segment arrives; blocking
          fetches set it to the full segment size at completion. *)
  mutable media_blocks : int;
      (** write-out watermark of a Staging line: how many leading blocks
          of its tertiary segment are already on the media. A torn
          write-out leaves it partway; the next attempt — a retry or a
          later ticket — resumes there, so no block is written twice
          (WORM-safe). A re-home resets it to 0. *)
  mutable prefetched : bool;
      (** inserted by a readahead hint and not yet demanded; cleared on
          first demand use. Eviction/cancellation while set counts
          against prefetch accuracy. *)
  mutable idle_hint : bool;
      (** set on prefetches issued by the idle-readahead daemon: their
          preemption/waste is counted under [idle.*] and never feeds
          the adaptive readahead's accuracy loop *)
  ready : Sim.Condvar.t;
      (** broadcast when Fetching completes — and, for streaming
          fetches, every time [valid_blocks] advances *)
  mutable span_id : int;
      (** async-span id of the in-flight fetch/write-out lifecycle
          ({!Sim.Trace.async_begin}); -1 when no span is open *)
  mutable ledger : Sim.Ledger.t;
      (** wait-profile ledger of the in-flight fetch/write-out, carried
          across the dispatcher and worker processes like [span_id];
          {!Sim.Ledger.none} when no request is in flight *)
  mutable failed : string option;
      (** reason the in-flight fetch failed permanently. When nothing
          was delivered the line leaves the directory at the same
          moment (a failure never poisons the cache); when a streaming
          fetch had delivered a valid prefix the line stays as
          [Partial] with [failed] kept, so parked waiters beyond the
          watermark raise [State.Io_error] while later readers are
          served from the prefix. Cleared when a tail re-fetch
          restarts the line. *)
}

type policy = Lru | Random_evict | Least_worthy

type t

val create : ?policy:policy -> ?seed:int -> max_lines:int -> unit -> t
val policy : t -> policy

val policy_name : t -> string
(** The policy id used in decision records and eviction-regret SLIs. *)

val max_lines : t -> int
val length : t -> int

val find : t -> int -> line option
(** Look up by tertiary segment index (no use-marking). *)

val insert : t -> tindex:int -> disk_seg:int -> state:state -> now:float -> line
(** Fails if the tindex is already present. The [max_lines] cap is a
    target enforced by the service process's ejections, not here. *)

val retag : t -> line -> int -> unit
(** Re-keys a line to a new tertiary segment (end-of-medium re-home). *)

val touch : t -> line -> now:float -> unit
(** Marks a use (promotes worthiness). *)

val pin : line -> unit

val unpin : t -> line -> unit
(** Dropping the last pin broadcasts {!freed}. *)

val freed : t -> Sim.Condvar.t
(** Broadcast whenever a line leaves the directory or loses its last
    pin — i.e. whenever an allocation waiter may now succeed. It is the
    instance's {!State.t.cache_progress}. *)

val evictable : line -> bool
(** Unpinned and Resident / Staged_clean / Partial — a legal eviction
    victim. *)

val choose_victim : t -> line option
(** An unpinned, evictable line according to the policy, or [None].
    The line is not removed. *)

val remove : t -> line -> unit
(** Takes the line out of the directory; its [image] stays attached for
    the caller to keep or give back. *)

val iter : t -> (line -> unit) -> unit
val lines : t -> line list
