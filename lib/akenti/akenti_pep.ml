(* Akenti as a GRAM authorization callout.

   The adapter the paper demonstrated at SC02: GRAM's callout API on one
   side, the Akenti engine on the other. *)

type clock = unit -> Grid_sim.Clock.time

let callout ~(engine : Engine.t) ~(now : clock) : Grid_callout.Callout.t =
 fun query ->
  let request = Grid_callout.Callout.to_policy_request query in
  match Engine.decide engine ~now:(now ()) request with
  | Engine.Granted -> Ok ()
  | Engine.Refused reason -> Error (Grid_callout.Callout.Denied ("Akenti: " ^ reason))
