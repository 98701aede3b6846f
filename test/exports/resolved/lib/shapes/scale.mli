val double : float -> float
(** Used under [let open Shapes.Scale]. *)

val half : float -> float
(** Never used: opening its module is not a use, so the check names it. *)
