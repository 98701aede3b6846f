(** The GRAM authorization callout API (paper Section 5.2).

    A callout is the seam between GRAM and any policy evaluation point. It
    is invoked before job-manager-request creation and before every
    cancel/query/signal on a running job, and answers success or a typed
    authorization error distinguishing denial from authorization-system
    failure — the error-code extension the paper added to the GRAM
    protocol. *)

type query = {
  requester : Grid_gsi.Dn.t;
  requester_credential : Grid_gsi.Credential.t option;
  job_owner : Grid_gsi.Dn.t option;
  action : Grid_policy.Types.Action.t;
  job_id : string option;
  rsl : Grid_rsl.Ast.clause option;
  jobtag : string option;
}

type error =
  | Denied of string
  | System_error of string
  | Bad_configuration of string

type decision = (unit, error) result

type t = query -> decision

val permitted : decision
(** The shared [Ok ()] decision. Hot paths return this constant instead
    of allocating a fresh [Ok ()] per call; callers must not rely on
    physical identity, only on structural equality. *)

val error_to_string : error -> string
val pp_error : error Fmt.t

(** Smart constructor for queries — the single supported way to build a
    {!query}.

    The variant-typed [intent] makes the start/management split explicit
    in the type instead of in two near-identical functions, and is the
    extension point for future intents (e.g. delegation). *)
module Query : sig
  type intent =
    | Start of Grid_rsl.Ast.clause
        (** Job submission: the RSL clause is the object of the decision
            and the action is forced to [Action.Start]. *)
    | Management of {
        action : Grid_policy.Types.Action.t;
        job_owner : Grid_gsi.Dn.t;
        jobtag : string option;
      }
        (** Cancel/query/signal on a running job owned by [job_owner],
            optionally via a delegated [jobtag]. *)

  val make :
    requester:Grid_gsi.Dn.t ->
    ?credential:Grid_gsi.Credential.t ->
    ?job_id:string ->
    intent ->
    query
end

val to_policy_request : query -> Grid_policy.Types.request

val all : t list -> t
(** Conjunction: every callout must authorize; the first error wins. An
    empty list is a configuration error (fail closed). *)

val permit_all : t
(** Authorizes everything — the "no PEP" baseline for benchmarks. *)

val deny_all : reason:string -> t
val failing : message:string -> t

val counting : t -> t * (unit -> int)
(** Wrap a callout with an invocation counter. *)

(** Batched decisions: a two-lane callout whose [many] lane answers a
    whole [query array] in one call, with the contract that
    [evaluate_many b qs] is element-wise equal (decision and reason) to
    [Array.map (check b) qs] and preserves order. Backends that can
    amortize work across a batch (shared policy-index probes, per-batch
    dedupe, one cache pass) implement [many] natively; any plain
    {!type:t} lifts via {!Batch.of_callout} with the derived
    (non-amortized) lane, so every existing callout keeps working. *)
module Batch : sig
  type callout = t

  type t = private {
    single : callout;
    many : query array -> decision array;
  }

  val make : single:callout -> many:(query array -> decision array) -> t
  (** [many] must be element-wise equivalent to mapping [single] and
      must return the answers in request order. *)

  val of_callout : callout -> t
  (** Derived fallback: [many] is [Array.map] over the single lane. *)

  val callout : t -> callout
  val check : t -> callout

  val evaluate_many : t -> query array -> decision array
  (** Answers in request order; [[||]] for the empty batch without
      touching the backend. *)
end

val outcome_label : decision -> string
(** ["permitted"] / ["denied"] / ["system_error"] / ["bad_configuration"]:
    the metric label vocabulary for decisions. *)

val with_timeout :
  ?obs:Grid_obs.Obs.t -> budget:float -> latency:(unit -> float) -> t -> t
(** Bound the backend's (simulated) latency: when [latency ()] samples
    above [budget], answer [System_error] immediately and count it under
    [authz_timeouts_total] instead of blocking the JMI. *)

val with_retry : ?obs:Grid_obs.Obs.t -> ?policy:Grid_util.Retry.policy -> t -> t
(** Retry [System_error] answers up to [policy.max_attempts] times
    (within the same simulation instant — the JMI blocks on the callout);
    [Denied] and [Bad_configuration] are returned as-is. Each retry is
    counted under [authz_retries_total]. *)

val with_breaker : breaker:Grid_util.Retry.Breaker.t -> now:(unit -> float) -> t -> t
(** Circuit-break a callout: while the breaker is open, answer
    [System_error "authorization backend circuit open"] without invoking
    the backend. [Ok] and [Denied] count as successes (the policy engine
    answered); [System_error]/[Bad_configuration] count as failures. *)

val breaker :
  ?failure_threshold:int -> ?cooldown:float -> ?obs:Grid_obs.Obs.t -> unit ->
  Grid_util.Retry.Breaker.t
(** A breaker whose state transitions are counted under
    [authz_breaker_transitions_total{from,to}]. *)

type degradation =
  | Fail_open  (** availability over enforcement: outage => permit *)
  | Fail_closed  (** the paper's default-deny stance: outage => refuse *)

val degradation_label : degradation -> string

val degrade : ?obs:Grid_obs.Obs.t -> degradation -> t -> t
(** Explicit degradation policy for backend outages. Converts only
    [System_error]/[Bad_configuration] — a [Denied] policy answer is
    never overridden, so [Fail_open] cannot turn a denial into a permit.
    Every degraded decision is counted under
    [authz_degraded_total{mode}]. Default configuration across the
    system is [Fail_closed]. *)

val flaky : rng:Grid_util.Rng.t -> failure_probability:float -> t -> t
(** Deterministic fault injector: fail with [System_error] at the given
    probability, sampled from the caller's seeded stream. *)

val credential_expiry : Grid_gsi.Credential.t -> float option
(** Earliest [not_after] across the presented chain; [None] for an
    empty chain. *)

val instrument : ?backend:string -> ?epoch:(unit -> int) -> obs:Grid_obs.Obs.t -> t -> t
(** The timed sibling of {!counting}: wrap a callout so every invocation
    opens an ["authz.callout"] span, increments
    [authz_decisions_total{action,outcome,backend}] and emits an
    ["authz.decision"] wide event carrying the full request, the
    outcome, the policy epoch sampled from [epoch] and the requesting
    credential's expiry — the record the online safety monitor checks.
    A disabled observer returns the callout unchanged. *)

val instrument_batch :
  ?backend:string -> ?epoch:(unit -> int) -> obs:Grid_obs.Obs.t -> Batch.t -> Batch.t
(** Batched sibling of {!instrument}: the single lane is instrumented
    per-decision as usual; the many lane runs the whole batch under one
    ["authz.batch"] span and bulk-increments
    [authz_decisions_total{action,outcome,backend}] per cell, but still
    emits one ["authz.decision"] wide event per decision — the safety
    monitor's input must not be thinned out by batching. *)
