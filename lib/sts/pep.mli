(** The token-validating policy evaluation point.

    A wrapper PEP: it admits a request only when the requester's
    credential carries a valid STS token (signature, window, audience,
    subject binding, entitlement, revocation via an attached
    {!Validator}), then delegates the actual policy decision to the
    resource's inner callout. For non-revoked, fully-entitled subjects
    the decision {e and reason} are therefore identical to the plain
    proxy path — the property the differential test gate checks.

    Every check emits a ["token.validated"] wide event (outcome, jti,
    subject, expiry) — the record the safety monitor's token-revocation
    invariant consumes — and counts under
    [token_checks_total{outcome}]. *)

type clock = unit -> Grid_sim.Clock.time

val callout :
  ?obs:Grid_obs.Obs.t ->
  ?validator:Validator.t ->
  sts_key:Grid_crypto.Keypair.public ->
  audience:string ->
  now:clock ->
  Grid_callout.Callout.t ->
  Grid_callout.Callout.t
(** [callout ~sts_key ~audience ~now inner]: validate the carried token,
    then ask [inner]. Fails closed ([Denied]) without a credential or
    token; an undecodable token is a [System_error]. Without [validator]
    no revocation state is consulted (the stateless mode). *)

val batch :
  ?obs:Grid_obs.Obs.t ->
  ?validator:Validator.t ->
  sts_key:Grid_crypto.Keypair.public ->
  audience:string ->
  now:clock ->
  Grid_callout.Callout.Batch.t ->
  Grid_callout.Callout.Batch.t
(** Batched sibling: tokens are checked per-query, the surviving
    sub-batch goes to the inner [many] lane in one call (preserving its
    amortization), and answers return in request order — element-wise
    equal to mapping the single lane. *)
