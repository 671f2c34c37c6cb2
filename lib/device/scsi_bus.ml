type t = { res : Sim.Resource.t }

let create engine name =
  { res = Sim.Resource.create engine ~wait_category:Sim.Ledger.Bus_contention ("scsi:" ^ name) }

let resource t = t.res

(* Every disk chunk on a bus comes through here, so like [Disk]'s chunk
   path it takes the resource without a closure and builds the span and
   ledger thunks only when a tracer or a ledger registry is installed. *)
let hold t duration =
  if Sim.Trace.enabled () then
    Sim.Trace.span ~track:(Sim.Resource.name t.res) ~cat:"bus" "xfer" (fun () ->
        Sim.Ledger.charged_delay Sim.Ledger.Transfer duration)
  else Sim.Ledger.charged_delay Sim.Ledger.Transfer duration

let transfer t duration =
  Sim.Fault.check ~site:(Sim.Resource.name t.res) Sim.Fault.Transfer;
  Sim.Resource.acquire t.res;
  match hold t duration with
  | () -> Sim.Resource.release t.res
  | exception e ->
      Sim.Resource.release t.res;
      raise e
