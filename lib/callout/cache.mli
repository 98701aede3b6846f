(** Bounded LRU cache over authorization callout decisions.

    Keyed on [(scope, policy epoch, requester DN, action, job id, jobtag,
    jobowner, RSL fingerprint)] with a simulated-time TTL. Only definite
    answers — [Ok ()] and [Denied] — are cached; [System_error] and
    [Bad_configuration] always reach the backend, and the fail-open
    degradation combinator must be composed {e outside} {!with_cache} so a
    degraded permit is never stored. A policy reload bumps the epoch
    ({!Grid_policy.Compile}), which both orphans old keys and flushes the
    table; an expired requester credential bypasses the cache entirely,
    and entries never outlive the credential chain that earned them.

    Counters: [authz_cache_hits_total], [authz_cache_misses_total],
    [authz_cache_evictions_total], [authz_cache_invalidations_total],
    [authz_cache_bypass_total], plus the [authz_cache_size] gauge. *)

type t

val create :
  ?capacity:int ->
  ?ttl:float ->
  ?obs:Grid_obs.Obs.t ->
  ?epoch:(unit -> int) ->
  ?revision:(unit -> int) ->
  ?extra_deadline:(Grid_gsi.Credential.t -> float option) ->
  ?revoked:(Grid_gsi.Credential.t -> bool) ->
  now:(unit -> float) ->
  unit ->
  t
(** [capacity] defaults to 1024 entries, [ttl] to 300 simulated seconds.
    [epoch] is sampled on every lookup (pass the compiled PEP's epoch);
    when it changes, the whole cache is invalidated. [revision] (the
    ReBAC tuple-store revision, {!Grid_rebac.Store.revision} via the
    PEP) is likewise sampled per lookup and folded into the key, but a
    change orphans old entries instead of flushing — a tuple write
    invalidates nothing about other snapshots' answers.
    [extra_deadline] further caps a stored entry's deadline from the
    requester credential — e.g. the [not_after] of a carried STS token
    ({!Grid_sts.Token.credential_deadline} at the wiring layer), so a
    cached permit never outlives the grant that earned it. [revoked]
    makes matching credentials bypass the cache entirely (reason
    ["credential_revoked"]) — wire it to the trust store's CRL so a
    revoked-but-unexpired proxy can neither be served from nor teach the
    cache. [now] is typically the engine clock. Raises
    [Invalid_argument] on non-positive capacity or ttl. *)

val with_cache : t -> ?scope:string -> Callout.t -> Callout.t
(** Memoize a callout through the cache. [scope] (default ["authz"])
    partitions the key space when one cache serves several callouts
    backed by different policy (e.g. the gatekeeper PEP and the job
    manager's mode callout). *)

val with_cache_many : t -> ?scope:string -> Callout.Batch.t -> Callout.Batch.t
(** Batched sibling of {!with_cache}: the single lane is exactly
    [with_cache t ~scope]; the many lane classifies the whole batch in
    one sweep — hits served from the table, credential bypasses and
    (representative) misses shipped to the backend's many lane as one
    sub-batch, within-batch duplicate keys collapsed onto one backend
    ask and answered like the cache hits they would have been
    sequentially. Answers come back in request order; bypassed queries
    are never stored. *)

val invalidate : t -> unit
(** Drop every entry, counting them as invalidations. *)

val query_key : scope:string -> epoch:int -> ?revision:int -> Callout.query -> string
(** The cache key itself: length-prefixed over every component the
    answer can depend on, so distinct queries cannot collide even when
    components contain separator bytes. Exposed for the key-collision
    property suite in [test_callout]. *)

(** {1 Introspection} *)

val size : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val invalidations : t -> int

val bypasses : t -> int
(** Queries that skipped the cache because the requester credential was
    not live or was revoked. *)

val pp : t Fmt.t
(** One-line statistics view (the [gridctl metrics] cache report). *)
