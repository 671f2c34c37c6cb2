(** Binary min-heap with a user-supplied ordering. Popped elements are
    cleared from the backing array, so the heap never keeps dead
    entries reachable — callers can park long-lived records (e.g. the
    segment-cache LRU) here without leaking them. The simulator's own
    event queue uses the specialized {!Sim.Eventq} instead. *)

type 'a t

(** [create ?capacity ~cmp] makes an empty heap; [capacity] pre-sizes
    the backing array so a known working-set heap never re-grows
    (default 0: grow on first push). *)
val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val peek : 'a t -> 'a option
val clear : 'a t -> unit
