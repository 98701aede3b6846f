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

(** Batched decisions: a callout with a [single] lane for one query and
    a [many] lane that answers a whole [query array] in one call, in
    request order. Each PEP layer writes only one of the two: a backend
    that amortizes work across a batch (shared policy-index probes,
    per-batch dedupe, one cache pass) writes the many lane and enters
    through {!Batch.of_many}, so its single query is a batch of one; a
    plain {!type:t} enters through {!Batch.of_callout}, so its many lane
    maps the single one. Either way [evaluate_many b qs] is element-wise
    equal (decision and reason) to [Array.map (check b) qs]. *)
module Batch : sig
  type callout = t

  type t = private {
    single : callout;
    many : query array -> decision array;
  }

  val make : single:callout -> many:(query array -> decision array) -> t
  (** Both lanes by hand, for a wrapper that must tell them apart (a
      timer per lane); nothing in the library needs that. [many] must be
      element-wise equivalent to mapping [single] and must return the
      answers in request order. *)

  val of_many : (query array -> decision array) -> t
  (** A native many lane; the single lane asks it a batch of one. *)

  val of_callout : callout -> t
  (** A plain callout; the many lane is [Array.map] over it. *)

  val check : t -> callout

  val evaluate_many : t -> query array -> decision array
  (** Answers in request order; [[||]] for the empty batch without
      touching the backend. *)
end

val outcome_label : decision -> string
(** ["permitted"] / ["denied"] / ["system_error"] / ["bad_configuration"]:
    the metric label vocabulary for decisions. *)

val flaky : rng:Grid_util.Rng.t -> failure_probability:float -> t -> t
(** Deterministic fault injector: fail with [System_error] at the given
    probability, sampled from the caller's seeded stream. *)

val instrument :
  ?backend:string -> ?epoch:(unit -> int) -> obs:Grid_obs.Obs.t -> Batch.t -> Batch.t
(** The timed sibling of {!counting}, and the one instrumentation
    wrapper above the PEPs. Every authorization pass — a single start or
    management question is a batch of one — runs under one
    ["authz.callout"] span carrying [backend] and [size] and nested under
    the caller's, bulk-increments
    [authz_decisions_total{action,outcome,backend}] per cell, and emits
    one ["authz.decision"] wide event per decision carrying the full
    request, the outcome, the policy epoch sampled from [epoch] and the
    requesting credential's expiry — the record the online safety
    monitor checks, which batching must not thin out. A disabled
    observer returns the batch unchanged. *)
