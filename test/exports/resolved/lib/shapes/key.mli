type t = int

val compare : t -> t -> int
(** Only reached through [Map.Make (Shapes.Key)]: a use of the whole module. *)
