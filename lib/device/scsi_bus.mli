(** The shared SCSI bus. Transfers hold the bus for their data phase; the
    paper notes that its autochanger driver did not disconnect, so robot
    motions can be configured to hog the bus for the whole swap — we model
    that artifact faithfully because it shapes the measured access
    delays. *)

type t

val create : Sim.Engine.t -> string -> t
val resource : t -> Sim.Resource.t

val transfer : t -> float -> unit
(** Holds the bus for the given duration (a data phase). *)
