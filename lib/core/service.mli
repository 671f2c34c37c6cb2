(** The user-level service process and its I/O workers (paper §6.7).
    The service (dispatcher) process waits for kernel requests (demand
    fetch, prefetch, segment write-out), allocates cache lines
    ({!Evict}) and hands the device work to tertiary workers that claim
    one volume at a time. Each transfer is two device phases (tertiary
    read → cache-disk write for a fetch; the reverse for a write-out);
    demand fetches preempt prefetches, which preempt write-outs, and
    write-outs batch per destination volume to amortize robot swaps.
    The dispatcher itself never blocks on a transfer.

    There is one pipeline; its settings say where each phase runs and
    when data is published:
    - [io_mode = Pipelined]: one tertiary worker per jukebox drive
      plus a cache-disk worker, so segment N's cache-disk phase
      overlaps segment N+1's tertiary phase.
    - [io_mode = Serial]: the paper's measured configuration — a
      single tertiary worker running both phases of each transfer
      inline, one request at a time, demand fetches and write-outs
      first-come ahead of prefetches (a prefetch that finds no free
      line waits instead of being dropped; no idle readahead) — the
      baseline the Table 4 "overlapped" column and the pipeline bench
      compare against.
    - [State.t.streaming_fetch]: a fetch publishes its valid-prefix
      watermark per chunk (waiters wake at their first block) or only
      at landing.
    - [State.t.streaming_writeout]: in [Pipelined] mode, a write-out's
      staging read runs on the cache-disk worker concurrently with its
      tertiary write; otherwise the whole image is read first (on the
      cache-disk worker, or inline in [Serial]). Either way a torn
      tertiary write resumes at its written prefix
      ([Seg_cache.line.media_blocks], kept across tickets), so WORM
      volumes need no special path. *)

val spawn : State.t -> io_mode:State.io_mode -> unit -> unit
(** Starts the service/I/O machinery; returns a shutdown function (the
    processes exit after finishing the current request). *)

type ticket

val request_writeout : State.t -> Seg_cache.line -> ticket
(** Queues a freshly assembled staging segment for copy-out; the
    service/I/O processes drain the queue asynchronously. *)

val await : ticket -> State.writeout_status
(** Blocks until the copy (including any end-of-medium re-homing)
    completes. *)
