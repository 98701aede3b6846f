(** One GRAM resource, wired: its policy evaluation point and the
    resource around it. [Testbed.make_resource], each [Fleet] member and
    each [Soak] member are built here; what differs by caller (obs
    scoping, seeded network and disk, cache capacity, Soak's single-lane
    mode with its denial-flip gate) arrives as values. Internal to the
    [core] library. *)

type pep = {
  authorization : Grid_callout.Callout.Batch.t;
  advice : (Grid_callout.Callout.query -> Grid_policy.Types.clause option) option;
  backend : string;
  epoch : unit -> int;
  revision : (unit -> int) option;
  reload : Grid_policy.Combine.source list -> unit;
}
(** A self-hosted PEP: its two-lane callout, policy-derived sandbox
    advice, metrics backend label, policy epoch, ReBAC store revision
    (ad-hoc tuple writes advance it without an epoch bump) and reload. *)

val pep : obs:Grid_obs.Obs.t -> rebac:bool -> Grid_policy.Combine.source list -> pep
(** The flat-file PEP over [sources], or the ReBAC PEP with [~rebac:true]. *)

val rebac_pep : Grid_rebac.Pep.t -> pep

type t = {
  resource : Grid_gram.Resource.t;
  lrm : Grid_lrm.Lrm.t;
  cache : Grid_callout.Cache.t option;
  validator : Grid_sts.Validator.t option;
}

val resource :
  ?queues:Grid_lrm.Lrm.queue_config list ->
  ?nodes:int ->
  ?cpus_per_node:int ->
  ?gridmap:Grid_gsi.Gridmap.t ->
  ?dynamic_accounts:int ->
  ?gatekeeper_pep:Grid_callout.Callout.t ->
  ?allocation:Grid_accounts.Allocation.enforcement ->
  ?network:Grid_sim.Network.t ->
  ?request_timeout:float ->
  ?authz_cache:int ->
  ?store:Grid_store.Store.t ->
  ?sts:Grid_sts.Service.t ->
  ?pep:pep ->
  ?mode:Grid_gram.Mode.t ->
  name:string ->
  engine:Grid_sim.Engine.t ->
  trust:Grid_gsi.Ca.Trust_store.store ->
  obs:Grid_obs.Obs.t ->
  unit ->
  t
(** Build the LRM ([nodes] x [cpus_per_node], default 4 x 8), the
    mapper (a pool of [dynamic_accounts] 8-hour leases) and the resource.
    [mode] defaults to the [pep]'s batch-lane mode, or the GT2 baseline
    without one. With [sts], an attached validator and the
    token-validating PEP gate an Extended mode's callout. [authz_cache]
    adds a decision cache of that capacity: 5-minute TTL, keyed on the
    [pep]'s epoch and revision, capped at a carried token's deadline,
    bypassed for credentials the trust store revokes, and flushed on
    every token revocation the validator applies. *)
