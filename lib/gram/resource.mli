(** A GRAM-managed resource (one grid site): Gatekeeper + JMIs + LRM +
    audit, reachable directly (for microbenchmarks) or over the simulated
    network (for end-to-end flows). *)

type t

val create :
  ?name:string ->
  ?network:Grid_sim.Network.t ->
  ?gatekeeper_pep:Grid_callout.Callout.t ->
  ?allocation:Grid_accounts.Allocation.enforcement ->
  ?obs:Grid_obs.Obs.t ->
  ?request_timeout:float ->
  ?authz_cache:Grid_callout.Cache.t ->
  ?store:Grid_store.Store.t ->
  ?policy_epoch:(unit -> int) ->
  trust:Grid_gsi.Ca.Trust_store.store ->
  mapper:Grid_accounts.Mapper.t ->
  mode:Mode.t ->
  lrm:Grid_lrm.Lrm.t ->
  engine:Grid_sim.Engine.t ->
  unit ->
  t
(** [obs] defaults to a fresh engine-clocked handle
    ([Grid_obs.Obs.of_engine]); pass [Grid_obs.Obs.noop] to disable
    instrumentation, or share one handle across components. The mode's
    authorization callout is wrapped with [Mode.instrument] under it.
    [request_timeout] is the default per-request deadline applied to the
    networked entry points (none by default: requests wait forever, as
    the pre-fault-model behaviour did); injected network faults are
    counted under [network_faults_total] when [obs] is enabled.
    [authz_cache] memoizes the mode's authorization callout (inside the
    instrumentation, so hits still count as decisions) and the
    gatekeeper PEP, each under its own cache scope.

    [store] makes the job manager durable: every authorization-relevant
    lifecycle event (creation with owner, jobtag, RSL fingerprint,
    sandbox limits and policy epoch; terminal state transitions;
    cancel/signal outcomes) is journalled through it, and the live job
    table serves as its snapshot source for compaction. [policy_epoch]
    (typically the compiled PEP's epoch counter) is recorded on each
    admission and compared on {!recover}. *)

val name : t -> string
val engine : t -> Grid_sim.Engine.t
val network : t -> Grid_sim.Network.t
val lrm : t -> Grid_lrm.Lrm.t
val audit : t -> Grid_audit.Audit.t
val trace : t -> Grid_sim.Trace.t

val obs : t -> Grid_obs.Obs.t
(** The resource's observability handle: metrics registry + span tracer. *)

val authz_cache : t -> Grid_callout.Cache.t option
(** The authorization decision cache the resource was built with, for
    statistics views ([gridctl metrics]) and tests. *)

val store : t -> Grid_store.Store.t option
(** The durable store the resource was built with, if any. *)

val crash : t -> unit
(** Kill the job manager: every in-memory JMI (and the store's unsynced
    journal tail, per the disk fault profile) is lost. The LRM — a
    separate process in GT2 terms — keeps running its jobs. Follow with
    {!recover} to rebuild the job table from snapshot + journal. *)

type recovery_summary = {
  jobs_restored : int;  (** JMIs rebuilt from durable creation records *)
  records_replayed : int;  (** snapshot + journal records decoded *)
  dropped_bytes : int;  (** corrupt/torn tail bytes discarded *)
  stale_epoch_jobs : int;
      (** jobs admitted under a policy epoch older than the current one *)
  decode_failures : int;
  duration : float;  (** host-clock seconds spent recovering *)
}

val recover : t -> recovery_summary
(** Replay the store and rebuild the JMI table: restored instances keep
    their contacts, re-attach to still-running LRM jobs, and authorize
    management exactly as before the crash. The authorization decision
    cache (if any) is flushed — the policy epoch may have moved while
    the job manager was down — and epoch mismatches are counted in
    [recovery_epoch_mismatches_total]. Without a store this is a no-op
    summary of zeros. *)

val find_jmi : t -> string -> Job_manager.t option
val jobs : t -> Job_manager.t list

val register_callback :
  t ->
  contact:string ->
  on_state_change:(Protocol.job_state -> unit) ->
  (unit, Protocol.management_error) result
(** GT2-style callback contact: deliver subsequent job state transitions
    to the listener over the simulated network. *)

val new_challenge : t -> string

val submit_direct :
  t ->
  credential:Grid_gsi.Credential.t ->
  rsl:string ->
  (Protocol.submit_reply, Protocol.submit_error) result

val manage_direct :
  t ->
  requester:Grid_gsi.Dn.t ->
  ?credential:Grid_gsi.Credential.t ->
  contact:string ->
  Protocol.management_action ->
  (Protocol.management_reply, Protocol.management_error) result
(** When [credential] is given it is authenticated (chain, expiry,
    revocation, single-use challenge) and must assert [requester];
    credential-less calls are for in-process trusted callers only. *)

type manage_request = {
  requester : Grid_gsi.Dn.t;
  credential : Grid_gsi.Credential.t option;
  contact : string;
  action : Protocol.management_action;
}
(** One element of a management batch — the inputs of {!manage_direct},
    as data. *)

val manage_many_direct :
  t ->
  manage_request array ->
  (Protocol.management_reply, Protocol.management_error) result array
(** Batched {!manage_direct}: every request is resolved and
    authenticated individually, then all surviving requests are
    authorized in one callout batch (the Extended mode's many lane) and
    performed. Element-wise the answers, audit records, and journal
    entries match the single-shot path; results come back in request
    order. *)

val submit :
  t ->
  credential:Grid_gsi.Credential.t ->
  rsl:string ->
  reply:((Protocol.submit_reply, Protocol.submit_error) result -> unit) ->
  unit
(** Networked submission: traces the Figure 1/2 arrows and delivers the
    reply asynchronously. With a resource-level [request_timeout] the
    reply callback fires exactly once: with the
    result, or with [Request_timeout] if no reply arrived in time — late
    and duplicate replies are discarded. *)

val manage :
  ?timeout:float ->
  t ->
  requester:Grid_gsi.Dn.t ->
  ?credential:Grid_gsi.Credential.t ->
  contact:string ->
  Protocol.management_action ->
  reply:((Protocol.management_reply, Protocol.management_error) result -> unit) ->
  unit
