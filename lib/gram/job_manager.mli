(** The Job Manager Instance: one per job; parses the request, drives the
    local resource manager, and — in extended mode — enforces policy
    through the authorization callout on startup and on every management
    request. *)

type t

val create :
  ?allocation:Grid_accounts.Allocation.enforcement ->
  ?obs:Grid_obs.Obs.t ->
  owner:Grid_gsi.Dn.t ->
  account:string ->
  limits:Grid_accounts.Sandbox.limits ->
  job:Grid_rsl.Job.t ->
  mode:Mode.t ->
  lrm:Grid_lrm.Lrm.t ->
  engine:Grid_sim.Engine.t ->
  audit:Grid_audit.Audit.t ->
  trace:Grid_sim.Trace.t ->
  unit ->
  t
(** [allocation] turns on coarse-grained admission control: a job's
    worst-case cpu-seconds are reserved against the owner's party budget
    at startup and settled against actual usage at termination. [obs]
    spans startup ([jmi.start] with [sandbox.check]/[lrm.submit]
    children and a detached [job.run] span closed at the terminal LRM
    state) and management ([jmi.manage], counted in
    [management_requests_total]); baseline owner-match decisions are
    counted in [authz_decisions_total] under backend ["gt2"]. *)

val restore :
  ?obs:Grid_obs.Obs.t ->
  contact:string ->
  owner:Grid_gsi.Dn.t ->
  account:string ->
  limits:Grid_accounts.Sandbox.limits ->
  job:Grid_rsl.Job.t ->
  mode:Mode.t ->
  lrm:Grid_lrm.Lrm.t ->
  engine:Grid_sim.Engine.t ->
  audit:Grid_audit.Audit.t ->
  trace:Grid_sim.Trace.t ->
  lrm_job:string option ->
  unit ->
  t
(** Rebuild a JMI from its durable creation record (crash recovery): the
    instance keeps its original [contact], re-attaches to the still-running
    LRM job by [lrm_job], and runs no startup authorization or submission
    side effects. *)

val contact : t -> string

(** The local scheduler's job id, once started. *)
val lrm_job_id : t -> string option

val owner : t -> Grid_gsi.Dn.t
val account : t -> string
val limits : t -> Grid_accounts.Sandbox.limits
val job : t -> Grid_rsl.Job.t
val jobtag : t -> string option

val callout_invocations : t -> int
(** How many times the authorization callout ran for this JMI. *)

val start :
  t ->
  credential:Grid_gsi.Credential.t option ->
  (Protocol.submit_reply, Protocol.submit_error) result
(** Authorize (extended mode), sandbox-check, and submit to the LRM. *)

val status : t -> (Protocol.job_status, Protocol.management_error) result

val manage :
  t ->
  requester:Grid_gsi.Dn.t ->
  ?credential:Grid_gsi.Credential.t ->
  Protocol.management_action ->
  (Protocol.management_reply, Protocol.management_error) result
(** Authorize the requester (owner-only in baseline mode; callout in
    extended mode), then perform the action against the LRM: {!manage_many}
    asked a batch of one. *)

val manage_many :
  (t * Grid_gsi.Dn.t * Grid_gsi.Credential.t option * Protocol.management_action) array ->
  (Protocol.management_reply, Protocol.management_error) result array
(** Management across (possibly many) JMIs, the one management path:
    items whose extended modes share one batch callout are authorized in
    a single [evaluate_many] pass (one ["authz.callout"] span), baseline
    items keep the inline initiator check, and every item is then
    audited, performed, spanned as ["jmi.manage"] and counted on its
    own. Results come back in request order. *)
