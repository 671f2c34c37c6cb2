(** The engine's event queue: a monomorphic 4-ary min-heap specialised
    to [(time : float, seq : int)] keys.

    The generic {!Util.Heap} costs a polymorphic-[compare] call — a C
    call that chases the boxed [time] — at every level of every push and
    pop, and its popped cells keep the old element (and its closure)
    reachable. Here keys live in a flat [float array] (unboxed loads,
    inlined compares), ties break FIFO on an internal monotone sequence
    number, and popped cells are scrubbed, so the queue neither calls
    [compare] nor retains retired actions.

    Payloads are {!slot}s: one per simulator process, reused across that
    process's events. The engine guarantees a process has at most one
    queued event at a time (a coroutine is either running, suspended, or
    waiting for exactly one resumption), which is what makes the reuse —
    and hence a near-allocation-free push/pop cycle — sound. *)

type action =
  | Noop
  | Thunk of (unit -> unit)  (** a process's first slice *)
  | Resume of (unit, unit) Effect.Deep.continuation
      (** a resumption after [delay]/[suspend], scheduled without a
          wrapper closure *)

type slot = { mutable act : action; pid : int; name : string }

val dummy : slot
(** Inert filler for scrubbed cells; never returned by {!pop}. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the arrays so steady-state runs (thousands of
    concurrent processes) skip the doubling ramp. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> time:float -> slot -> unit
(** Queues [slot] at [time]. Equal times pop in push order. *)

type clock = { mutable time : float }
(** A single-field float record is unboxed, so writing the popped
    timestamp through it costs a store, not an allocation — this is how
    the engine's virtual clock receives event times. *)

val push_after : t -> clock -> slot -> after:float -> unit
(** [push_after t clock slot ~after] queues [slot] at
    [clock.time + max after 0.0]. The deadline is computed inside the
    queue so the sum never crosses a module boundary: without flambda,
    a caller-side [now +. dt] would box a float per event. This is the
    primitive under [Engine.arm]/[schedule]. *)

val min_time : t -> float
(** Timestamp of the next event. @raise Invalid_argument when empty. *)

val pop : t -> slot
(** Removes and returns the minimum event's slot, scrubbing the freed
    cell. @raise Invalid_argument when empty. *)

val pop_into : t -> clock -> slot
(** {!pop}, additionally advancing [clock] to the popped timestamp
    without boxing it. The queue never holds an event earlier than a
    previously popped one (the engine only schedules at or after the
    current time), so the clock is monotone. *)
