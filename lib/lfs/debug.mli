(** Introspection: machine-generated renderings of the live on-disk
    state. The benchmark harness uses these to reproduce the paper's
    layout figures (Fig. 1 and Fig. 3) from an actual running file
    system rather than as static art. *)

val render_map : Fs.t -> string
(** One character per segment: [.] clean, [d] dirty, [A] active,
    [C] cached. *)

val render_segments : ?limit:int -> Fs.t -> string
(** Per-segment detail lines: state, live bytes and, for log segments,
    the partial-segment chain with per-file block lists — the content of
    the paper's Figure 1. *)

val render_stats : Fs.t -> string
(** Counters: segments/partials written, cache hit rate, clean count. *)

val live_audit : Fs.t -> (int * int * int) list
(** For every non-clean log segment: (segment, recorded live bytes,
    recomputed live bytes). Recomputation walks the segment with
    {!Cleaner.fold_segment} and applies the cleaner's liveness test to
    every block, so the two can legitimately differ by the bookkeeping
    drift documented in DESIGN.md (roll-forward estimates, ifile
    write-behind); the cleaner tolerates the drift because it
    re-verifies per block. *)

val fsck : Fs.t -> string list
(** Deep consistency check: verifies that every partial segment in the
    log's Dirty and Active segments still matches its summary's data
    checksum (naming the segment and offset of each mismatch), walks
    every file and verifies that each mapped block address is inside a
    non-clean segment, that directory entries resolve, and that link
    counts match. Returns violations. *)
