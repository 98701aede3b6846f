(** Akenti engine adapted to the GRAM authorization callout API. *)

type clock = unit -> Grid_sim.Clock.time

val callout : engine:Engine.t -> now:clock -> Grid_callout.Callout.t
