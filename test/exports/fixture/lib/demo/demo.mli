val fixture_called : int
(** Referenced from bin/main.ml: the check keeps it. *)

val fixture_orphan : int
(** Used only inside demo.ml: the check names it. *)
