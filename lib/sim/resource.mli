(** Counted FIFO resources: a disk services one request at a time, a SCSI
    bus one transfer, a jukebox has as many drive slots as drives. Also
    tracks busy time so benches can report device utilisation. *)

type t

val create : Engine.t -> ?capacity:int -> ?wait_category:Ledger.category -> string -> t
(** [capacity] defaults to 1. With [wait_category], time a process
    spends blocked in {!acquire} is charged to that category on the
    active {!Ledger} of the waiting process (no-op when no ledger layer
    is installed or no request is active). *)

val name : t -> string

val acquire : t -> unit
(** Blocks (FIFO) until a unit of the resource is available. *)

val release : t -> unit

val with_resource : t -> (unit -> 'a) -> 'a
(** Acquire/release bracket; releases on exception too. *)

val in_use : t -> int

val busy_time : t -> float
(** Total virtual time during which at least one unit was held. *)

val utilization : t -> float
(** [busy_time / elapsed-since-creation], in [0,1]. *)
