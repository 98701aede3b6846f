type kind = Round | Oval
(** [Oval] is never built: the check names [Shapes.Circle.kind.Oval]. *)

type t = { radius : float; label : string }
(** [label] is written but never read: the check names it. *)

val make : ?label:string -> float -> t
(** No caller passes [?label]: the check names [Shapes.Circle.make ?label]. *)

val area : t -> float
val kind : t -> kind
