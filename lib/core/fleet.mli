(** A federated fleet of GRAM resources behind one MDS directory and
    broker: per-member gatekeeper/JMI/LRM/PEP (independent policy
    epochs), optional per-member decision cache and durable store,
    capacity-aware brokered placement, and cross-resource third-party
    management routed to the member that owns the job contact.

    Sits below [Core] — callers supply the engine, trust store and
    observability handle ([Core.Fusion.build ?fleet] assembles the
    standard world). *)

type t

type member
(** One site of the fleet. *)

type submit_error =
  | Unplaceable  (** discovery produced no usable candidate *)
  | Rejected of string  (** the RSL did not parse *)
  | Site_error of string * Grid_gram.Protocol.submit_error
      (** a site answered; the fall-through stops — even on a denial *)
  | Unreachable of (string * Grid_gram.Protocol.submit_error) list
      (** every ranked candidate timed out *)

val submit_error_to_string : submit_error -> string

val create :
  ?resources:int ->
  ?name_prefix:string ->
  ?nodes:int ->
  ?cpus_per_node:int ->
  ?queues:Grid_lrm.Lrm.queue_config list ->
  ?gridmap:Grid_gsi.Gridmap.t ->
  ?dynamic_accounts:int ->
  ?rebac:bool ->
  ?authz_cache:int ->
  ?store:bool ->
  ?faults:Grid_sim.Network.Faults.profile ->
  ?fault_seed:int ->
  ?request_timeout:float ->
  ?precheck:(Grid_policy.Types.request -> bool) ->
  ?seed:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:float ->
  ?directory_ttl:Grid_sim.Clock.time ->
  ?provider_period:Grid_sim.Clock.time ->
  ?sts:Grid_sts.Service.t ->
  sources:(unit -> Grid_policy.Combine.source list) ->
  engine:Grid_sim.Engine.t ->
  trust:Grid_gsi.Ca.Trust_store.store ->
  obs:Grid_obs.Obs.t ->
  unit ->
  t
(** [resources] members (default 4) named ["<name_prefix>-<i>"]. Every
    member compiles its own policy index from [sources ()] (flat-file,
    or ReBAC with [~rebac:true]) so epochs advance independently;
    {!reload_member} re-pulls [sources] for one member. [authz_cache]
    gives each member a decision cache of that capacity; [store] a
    durable job-manager store on its own seeded disk; [faults] a
    fault-injected network with an independent per-member stream derived
    from [fault_seed]. [seed] fixes the broker's tie-break ranking.
    [sts] runs the fleet tokenized: each member gates its policy engine
    behind a token-validating PEP ({!Grid_sts.Pep}) with its own
    attached validator, member caches cap entry deadlines at the carried
    token's [not_after], and an applied revocation flushes the owning
    member's cache. Raises [Invalid_argument] when [resources < 1]. *)

(** {1 Topology} *)

val size : t -> int
val members : t -> member list
val member : t -> int -> member
val member_named : t -> string -> member option
val directory : t -> Grid_mds.Directory.t
val broker : t -> Grid_mds.Broker.t
val engine : t -> Grid_sim.Engine.t
val seed : t -> int

val member_name : member -> string
val member_resource : member -> Grid_gram.Resource.t
val member_cache : member -> Grid_callout.Cache.t option
val member_store : member -> Grid_store.Store.t option

val member_validator : member -> Grid_sts.Validator.t option
(** The member's token-revocation view when the fleet runs tokenized
    ([Fleet.create ?sts]). *)

val member_epoch : member -> int
(** The member's current policy epoch. *)

val member_publications : member -> int

val routed_jobs : t -> int
(** Live entries in the contact routing table: a route is dropped when
    the owning member's LRM reports the job terminal, with or without a
    durable store, so the table is O(live jobs). *)

(** {1 Placement} *)

val submit_sync :
  t ->
  identity:Grid_gsi.Identity.t ->
  rsl:string ->
  (string * Grid_gram.Protocol.submit_reply, Grid_mds.Broker.error) result
(** Brokered synchronous placement (drives the engine — use from outside
    the simulation only). Returns the winning site and reply, and
    records the contact route. *)

val submit :
  t ->
  identity:Grid_gsi.Identity.t ->
  rsl:string ->
  reply:((string * Grid_gram.Protocol.submit_reply, submit_error) result -> unit) ->
  unit
(** Asynchronous placement, safe inside engine callbacks: candidates are
    ranked by the broker's pure selection, then tried over the network in
    order. A timeout feeds the site's breaker and falls through to the
    next candidate; any answer (including a denial) stops the
    fall-through. *)

(** {1 Cross-resource management} *)

val locate : t -> contact:string -> member option
(** The member owning a job contact: routing table first, then a probe
    of members' JMI tables (covers restored jobs and out-of-band
    submissions). *)

val manage :
  ?timeout:float ->
  ?credential_for:(Grid_gram.Resource.t -> Grid_gsi.Credential.t option) ->
  t ->
  requester:Grid_gsi.Dn.t ->
  ?credential:Grid_gsi.Credential.t ->
  contact:string ->
  Grid_gram.Protocol.management_action ->
  reply:
    ((Grid_gram.Protocol.management_reply, Grid_gram.Protocol.management_error) result ->
    unit) ->
  unit
(** Route the request to the owning member and manage over its network;
    [Unknown_job] when no member owns the contact. The owning member's
    PEP decides — a jobtag granted at one site authorizes management of
    tagged jobs at every site. Challenges are per-gatekeeper, so when no
    [credential] is given, [credential_for] can mint one against the
    located member's resource (the tokenized workload's path). *)

val manage_sync :
  t ->
  requester:Grid_gsi.Dn.t ->
  ?credential:Grid_gsi.Credential.t ->
  contact:string ->
  Grid_gram.Protocol.management_action ->
  (Grid_gram.Protocol.management_reply, Grid_gram.Protocol.management_error) result
(** In-process routed management (the owning member's direct lane). *)

val manage_many :
  ?credential_for:
    (Grid_gram.Resource.t ->
    Grid_gram.Resource.manage_request ->
    Grid_gsi.Credential.t option) ->
  t ->
  Grid_gram.Resource.manage_request array ->
  (Grid_gram.Protocol.management_reply, Grid_gram.Protocol.management_error) result array
(** Batched routed management: requests grouped by owning member, each
    group authorized through that member's batch lane; results in
    request order. Unroutable contacts answer [Unknown_job].
    [credential_for] fills a credential-less request once its owning
    member is known (see {!manage}). *)

(** {1 Operations} *)

val reload_member : t -> int -> int
(** Re-pull [sources] into member [i]'s PEP; returns the new epoch. *)

val reload : t -> unit
(** {!reload_member} for every member. *)

val crash_member : t -> int -> unit
val recover_member : t -> int -> Grid_gram.Resource.recovery_summary

val refresh : t -> unit
(** Force an immediate out-of-band publication from every provider. *)

val quiesce : t -> unit
(** Stop every provider's publish loop so [Engine.run] can settle the
    remaining work and terminate. *)
