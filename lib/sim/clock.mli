(** Virtual time: simulated seconds since the start of a run. *)

type time = float

val zero : time
val add : time -> time -> time
val ( <= ) : time -> time -> bool

val minutes : float -> time
val hours : float -> time

val days : float -> time
(** Multi-day soak campaigns are expressed in these. *)
