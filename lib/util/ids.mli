(** Deterministic unique identifiers.

    The whole system runs inside a deterministic simulator, so identifiers
    are drawn from a process-global counter rather than from wall-clock or
    randomness. [reset] restores the counter, which tests use to obtain
    reproducible ids. *)

type t = string

val reset : unit -> unit
(** Reset the global counter. Intended for test setup only. *)

val fresh : string -> t
(** [fresh prefix] returns [prefix ^ "-" ^ n] for a fresh [n]. *)

val job : unit -> t
(** Fresh job identifier ([job-NNNNNN]). *)

val lease : unit -> t
(** Fresh dynamic-account lease identifier. *)

val request : unit -> t
(** Fresh request identifier, used to correlate audit records. *)

val contact : unit -> t
(** Fresh job-manager contact string (the GRAM "job contact"). *)
