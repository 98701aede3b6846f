(** Resource-side revocation view for STS tokens.

    One validator per resource (fleet member). Its mode decides how
    revocations reach it — and therefore the revocation-to-enforcement
    window the deployment accepts:

    - [Short_ttl]: stateless. No revocation state is held; the token's
      own expiry is the only enforcement, so the window is the token
      TTL.
    - [Push]: the STS pushes revocation deltas in-band over
      {!Grid_sim.Network}; the window is the declared push bound
      (delivery latency).
    - [Pull]: the validator periodically fetches the STS's CRL snapshot
      from {!Grid_sim.Disk}-backed persistence (the object-store CRL of
      the access-token RFC); the window is the poll interval plus fetch
      slack.

    Every applied revocation can flush dependent state — the decision
    cache registers an {!on_revocation} hook so a cached permit never
    outlives the [jti] that earned it. *)

type mode =
  | Short_ttl
  | Push
  | Pull

val mode_to_string : mode -> string
val mode_of_string : string -> mode option
val all_modes : mode list

(** One revoked grant, as distributed. [subject] is carried so
    subject-wide revocations follow the token even where the [jti] was
    never seen. *)
type entry = {
  jti : string;
  subject : string;
  revoked_at : Grid_sim.Clock.time;
}

val encode_crl : entry list -> string
(** Injective wire form of a CRL snapshot ({!Grid_util.Wire}). *)

type t

val create :
  mode:mode ->
  engine:Grid_sim.Engine.t ->
  ?obs:Grid_obs.Obs.t ->
  ?poll_interval:Grid_sim.Clock.time ->
  ?disk:Grid_sim.Disk.t ->
  ?crl_file:string ->
  name:string ->
  unit ->
  t
(** Defaults: 60 s [poll_interval], CRL file ["sts-crl"]. [Pull] requires [disk];
    raises [Invalid_argument] without one. Polling starts on the first
    {!install}/{!deliver}-independent {!start} call. *)

val name : t -> string

val is_revoked : t -> jti:string -> subject:string -> bool
(** Whether this validator currently refuses the grant. Always [false]
    in [Short_ttl] mode — expiry is the enforcement there. *)

val deliver : t -> now:Grid_sim.Clock.time -> entry list -> unit
(** In-band receipt of a pushed revocation delta. *)

val start : t -> unit
(** Arm the [Pull] poll loop (no-op in other modes, idempotent). *)

val stop : t -> unit
(** Disarm the poll loop so the engine can drain. *)

val on_revocation : t -> (jti:string -> subject:string -> unit) -> unit
(** Called once per newly applied revocation, synchronously — the
    decision-cache flush hook. *)

val entries : t -> int
(** Resident revocation entries (jti + subject records). *)

val state_bytes : t -> int
(** Approximate resident bytes of revocation state — the footprint the
    stateful modes pay and [Short_ttl] does not. *)

val enforcement_latencies : t -> Grid_sim.Clock.time list
(** Simulated seconds from each revocation to this validator applying
    it, newest first. Empty in [Short_ttl] mode. *)
