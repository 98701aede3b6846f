(** The Akenti decision engine: conjunctive multi-stakeholder
    use-condition evaluation with attribute certificates. *)

type principal = {
  dn : Grid_gsi.Dn.t;
  key : Grid_crypto.Keypair.public;
}

type t

val create :
  resource:string ->
  stakeholders:principal list ->
  attribute_authorities:principal list ->
  t
(** Raises [Invalid_argument] with no stakeholders. *)

val publish_condition : t -> Use_condition.t -> unit
val publish_attribute : t -> Attr_cert.t -> unit

type verdict =
  | Granted
  | Refused of string

val decide : t -> now:Grid_sim.Clock.time -> Grid_policy.Types.request -> verdict
(** Every stakeholder must contribute a satisfied, applicable
    use-condition; otherwise the request is refused. Served from the
    decision cache when enabled and fresh. *)

val enable_cache : t -> ttl:Grid_sim.Clock.time -> unit
(** Cache decisions for [ttl]; the cache is flushed on every publish. *)

val cache_hits : t -> int
val cache_misses : t -> int
