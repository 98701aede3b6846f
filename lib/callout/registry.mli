(** In-process stand-in for dynamically loaded callout libraries. *)

type t

val create : unit -> t

val register : t -> library:string -> symbol:string -> Callout.t -> unit
(** Make [symbol] of [library] resolvable (the moral equivalent of
    installing a .so). *)

val lookup : t -> library:string -> symbol:string -> (Callout.t, Callout.error) result
(** Fails with [Bad_configuration] on unknown library or symbol. *)
