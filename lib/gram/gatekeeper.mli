(** The Gatekeeper: authentication, coarse-grained authorization, account
    mapping, and Job Manager creation. *)

type t

val create :
  ?gatekeeper_pep:Grid_callout.Callout.t ->
  ?allocation:Grid_accounts.Allocation.enforcement ->
  name:string ->
  trust:Grid_gsi.Ca.Trust_store.store ->
  mapper:Grid_accounts.Mapper.t ->
  mode:Mode.t ->
  lrm:Grid_lrm.Lrm.t ->
  engine:Grid_sim.Engine.t ->
  audit:Grid_audit.Audit.t ->
  trace:Grid_sim.Trace.t ->
  obs:Grid_obs.Obs.t ->
  unit ->
  t
(** [gatekeeper_pep] installs an additional policy evaluation point at
    the gatekeeper decision domain (Section 5.2); it sees job
    invocations only — management requests bypass the Gatekeeper, which
    is why the paper's primary PEP lives in the Job Manager. It is
    wrapped with [Grid_callout.Callout.instrument] under backend
    ["gatekeeper"]. [obs] (use [Grid_obs.Obs.noop] to disable) spans the
    submission path and counts authentications, account mappings, and
    submissions. *)

val new_challenge : t -> string
(** Mint a single-use authentication challenge; the submitting credential
    must be bound to it. *)

val authenticate :
  t -> Grid_gsi.Credential.t -> (Grid_gsi.Authn.context, Grid_gsi.Authn.error) result
(** Validate a credential against an outstanding challenge (consuming
    it) and the trust store. Shared by submission and management
    authentication; both paths are counted in [authn_total] and spanned
    as ["gsi.authenticate"]. *)

val handle_submit :
  t ->
  credential:Grid_gsi.Credential.t ->
  rsl:string ->
  (Job_manager.t * Protocol.submit_reply, Protocol.submit_error) result
(** The full Figure 1/2 gatekeeper path: authenticate, (baseline) reject
    the jobtag protocol extension, map to a local account, create and
    start a JMI. *)
