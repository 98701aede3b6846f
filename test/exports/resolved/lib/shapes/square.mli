val area : float -> float
(** Shares its name with [Circle.area], which is used; this one is not,
    and the check names it although a word match would keep it. *)

val side : float -> float
(** Used through a local [module R = Shapes.Square] alias. *)
