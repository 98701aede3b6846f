(** Information provider: periodically publishes a GRAM resource's state
    into the {!Directory}. *)

type t

val attach :
  ?period:Grid_sim.Clock.time ->
  ?site:string ->
  directory:Directory.t ->
  Grid_gram.Resource.t ->
  t
(** Register the resource and start periodic publication (default every
    30 simulated seconds, starting immediately). *)

val stop : t -> unit
(** Cease publication after the current period. *)

val publications : t -> int
