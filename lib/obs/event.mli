(** Structured wide events with request correlation.

    The third observability signal next to metrics and spans: every
    layer emits self-describing events (string attributes) onto a shared
    bus, each stamped with the simulation time and the correlation id of
    the request being processed. The online safety monitor
    ({!Monitor}) is the principal subscriber; [gridctl soak] reports
    violations as chains of these events.

    The bus keeps an ambient correlation stack (sound because the whole
    system is single-threaded over one simulation engine): request entry
    points push an id, asynchronous continuations re-establish it, and
    {!emit} attaches the innermost id automatically. *)

type t = {
  at : Grid_sim.Clock.time;
  corr : string option;  (** correlation id of the originating request *)
  layer : string;  (** emitting component, e.g. ["gram"], ["callout"] *)
  kind : string;  (** event name, e.g. ["authz.decision"] *)
  attrs : (string * string) list;
}

type bus

val create_bus : unit -> bus

val subscribe : bus -> (t -> unit) -> unit
(** Listeners run synchronously at emission, in subscription order. *)

val fresh_corr : bus -> string
(** Mint a new correlation id (["c-000042"]); deterministic per bus. *)

val current_corr : bus -> string option
(** Innermost ambient correlation id, if any. *)

val with_corr : bus -> string -> (unit -> 'a) -> 'a
(** Run the callback with [corr] as the ambient correlation id. *)

val emit :
  bus ->
  at:Grid_sim.Clock.time ->
  ?corr:string ->
  layer:string ->
  kind:string ->
  (string * string) list ->
  unit
(** Emit an event. [corr] defaults to the ambient correlation id. *)

val attr : t -> string -> string option
val attr_int : t -> string -> int option
val attr_float : t -> string -> float option

val pp : t Fmt.t
