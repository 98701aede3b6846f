(** The Security Token Service: trust-relation token exchange with a
    revocation layer.

    The service holds the trust relations ({!Trust.relation}), a signing
    key, a MyProxy-style escrow ({!Grid_gsi.Renewal}) for
    refresh-before-expiry, and the revocation registry. Its distribution
    mode decides how revocations reach the validators attached to it:
    pushed in-band over {!Grid_sim.Network}, persisted as a CRL snapshot
    on {!Grid_sim.Disk} for periodic pull, or not at all (stateless
    short-TTL).

    Revocations surface on the wide-event bus twice: as
    ["token.revoked"] (per [jti], the handle the monitor's
    token-revocation invariant tracks) and as ["credential.revoked"]
    (per subject, so the monitor's existing expired-credential invariant
    covers post-revocation token use outside the propagation window with
    no special casing). *)

type t

type exchange_error =
  | Claim_invalid of string  (** the presented credential failed verification *)
  | No_matching_relation of {
      issuer : string;
      subject : Grid_gsi.Dn.t;
    }
  | Subject_revoked of Grid_gsi.Dn.t

val exchange_error_to_string : exchange_error -> string

type refresh_error =
  | Renewal of Grid_gsi.Renewal.error
  | Exchange of exchange_error

val refresh_error_to_string : refresh_error -> string

val create :
  ?name:string ->
  ?default_ttl:Grid_sim.Clock.time ->
  ?mode:Validator.mode ->
  ?relations:Trust.relation list ->
  engine:Grid_sim.Engine.t ->
  trust:Grid_gsi.Ca.Trust_store.store ->
  obs:Grid_obs.Obs.t ->
  unit ->
  t
(** Defaults: name ["sts"], 900 s token TTL, [Short_ttl] mode, one
    permissive relation accepting any GSI identity the trust store
    validates. The service owns the network its [Push] revocations
    travel (delivered within 1 s) and the disk its [Pull] CRL lives on
    (polled every 60 s). *)

val public_key : t -> Grid_crypto.Keypair.public
val default_ttl : t -> Grid_sim.Clock.time

val propagation_window : t -> Grid_sim.Clock.time
(** The enforcement bound of the configured mode — what attached
    validators promise and what the safety monitor should allow. *)

val fresh_challenge : t -> string
(** A unique challenge for authenticating an exchange. *)

(** {1 Exchange} *)

val exchange :
  t -> now:Grid_sim.Clock.time -> Grid_gsi.Credential.t ->
  (Token.t, exchange_error) result
(** Exchange an authenticated GSI identity: the credential validates
    against the service's trust store, the certifying CA is the claim
    issuer, and the first matching relation decides entitlements,
    audience and TTL cap. *)

val proxy_with_token :
  t ->
  now:Grid_sim.Clock.time ->
  Grid_gsi.Identity.t ->
  (Grid_gsi.Identity.t * Token.t, exchange_error) result
(** Exchange on behalf of [identity] and delegate a proxy carrying the
    token as a certificate extension. The proxy's lifetime equals the
    token's remaining TTL, so chain expiry and token expiry coincide —
    the alignment the decision cache and the expired-credential
    invariant rest on. *)

(** {1 Escrow (refresh-before-expiry)} *)

val deposit :
  t ->
  identity:Grid_gsi.Identity.t ->
  authorized_renewers:Grid_gsi.Dn.t list ->
  now:Grid_sim.Clock.time ->
  unit ->
  [ `Deposited | `Replaced ]
(** Escrow a credential with the service ({!Grid_gsi.Renewal.deposit});
    a replacement of an existing escrow is reported and audited. *)

val refresh :
  t ->
  now:Grid_sim.Clock.time ->
  owner:Grid_gsi.Dn.t ->
  Grid_gsi.Credential.t ->
  (Grid_gsi.Identity.t * Token.t, refresh_error) result
(** Draw a fresh proxy of the escrowed identity and a fresh token in one
    step — the refresh-before-expiry path a client runs shortly before
    its current token's [not_after]. A revoked subject cannot refresh. *)

(** {1 Revocation} *)

val revoke_subject : t -> now:Grid_sim.Clock.time -> Grid_gsi.Dn.t -> unit
(** Revoke a subject: every outstanding token dies, future exchange and
    refresh refuse, and a subject-wide entry is distributed. *)

val outstanding_not_after : t -> Grid_gsi.Dn.t -> Grid_sim.Clock.time option
(** Latest [not_after] among every token issued to the subject, revoked
    and expired ones included — the stateless mode's de-facto
    enforcement time for that subject. Costs O(tokens of the subject). *)

(** {1 Validators} *)

val attach_validator :
  t -> ?obs:Grid_obs.Obs.t -> name:string -> unit -> Validator.t
(** A validator wired for this service's mode: push deliveries arrive
    over the service network on link ["sts-><name>"], pull polling
    starts immediately against the service's CRL file, short-TTL
    validators hold no state. A late joiner is seeded with the
    revocations it missed. *)

val quiesce : t -> unit
(** Stop every attached validator's poll loop so the engine can drain. *)

(** {1 Introspection} *)

val escrow_replacements : t -> int
