(** Network latency model over the simulation engine, with fault injection.

    Message delivery incurs a base one-way latency plus uniform jitter,
    making component interaction traces (Figure 1/2 reproductions) show
    realistic orderings.

    A configurable fault layer can drop, duplicate, or delay messages and
    partition named links. Fault sampling uses a seeded stream independent
    of the latency stream: enabling faults never perturbs the latency
    sequence seen by delivered messages, so span/trace expectations remain
    stable. *)

(** Fault profiles: per-message probabilities sampled on every [send]. *)
module Faults : sig
  type profile = {
    drop : float;
    duplicate : float;
    delay_probability : float;
    max_extra_delay : Clock.time;
  }

  val none : profile

  val profile :
    ?drop:float ->
    ?duplicate:float ->
    ?delay_probability:float ->
    ?max_extra_delay:Clock.time ->
    unit ->
    profile
  (** Build a profile, validating that probabilities lie in [0, 1].
      Raises [Invalid_argument] otherwise. *)

end

(** Fault events carry the link label of the affected message. *)
type fault_event =
  | Dropped of string
  | Duplicated of string
  | Delayed of string * Clock.time
  | Partitioned of string  (** dropped because the link is partitioned *)

type t

val create :
  ?base_latency:Clock.time ->
  ?jitter:Clock.time ->
  ?seed:int ->
  ?faults:Faults.profile ->
  ?fault_seed:int ->
  Engine.t ->
  t
(** Default: 5 ms base latency, up to 2 ms jitter, no faults. When
    [fault_seed] is omitted it is derived from [seed] such that the two
    streams stay decorrelated. *)

val send : ?link:string -> t -> (unit -> unit) -> unit
(** Deliver a message: run the handler after a sampled latency — unless the
    fault layer drops it (silently, beyond counters/listeners). [link]
    (default ["default"]) names the hop for partition checks and fault
    events. *)

val partition : t -> link:string -> unit
(** Partition a link: every message sent on it is dropped until [heal]. *)

val heal : t -> link:string -> unit
val partitioned : t -> link:string -> bool

val on_fault : t -> (fault_event -> unit) -> unit
(** Register a listener invoked synchronously on every injected fault, in
    registration order. Used to bridge fault events into [Grid_obs]. *)

val apply_schedule : t -> (Clock.time * Faults.profile) list -> unit
(** [apply_schedule t schedule] scripts every [(at, profile)] entry. *)

val messages_sent : t -> int
val messages_dropped : t -> int
val messages_duplicated : t -> int
val messages_delayed : t -> int
