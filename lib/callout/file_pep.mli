(** Flat-file policy evaluation point: the paper's prototype PEP.

    Queries evaluate through the compiled policy index
    ({!Grid_policy.Compile}); {!reference} keeps the uncompiled scan for
    differential testing and benchmarking. *)

(** A PEP holding compiled policy sources, reloadable in place. Its
    {!Compiled.epoch} is the newest policy epoch across the sources and
    strictly increases on every {!Compiled.reload} — the invalidation
    signal for {!Cache}. *)
module Compiled : sig
  type t

  val create : ?obs:Grid_obs.Obs.t -> Grid_policy.Combine.source list -> t
  val callout : t -> Callout.t

  val batch : t -> Callout.Batch.t
  (** Native batch lane: one amortized pass over the compiled sources
      per batch ({!Grid_policy.Combine.evaluate_compiled_many}), with
      denial decisions interned so repeated reasons share one rendered
      message. Element-wise equal to mapping {!callout} over the batch,
      in request order. *)

  val epoch : t -> int

  val reload : t -> Grid_policy.Combine.source list -> unit
  (** Swap in new policy text: recompiles every source and bumps the
      epoch, so cached decisions against the old policy die. *)
end

val of_sources : ?obs:Grid_obs.Obs.t -> Grid_policy.Combine.source list -> Callout.t
(** Conjunctive evaluation over named policy sources (compiled once at
    construction); denial messages name the denying source. [obs] spans
    and counts each per-source policy evaluation. *)

val reference : Grid_policy.Combine.source list -> Callout.t
(** The uncompiled evaluation path ([Combine.evaluate] per query):
    answers exactly what {!of_sources} answers, at pre-index cost. *)

val of_policy : name:string -> Grid_policy.Types.t -> Callout.t

val advice :
  Grid_policy.Combine.source list ->
  Callout.query ->
  Grid_policy.Types.clause option
(** The conjunction of the clauses on which a permit decision rested
    (one per source); [None] when the request is not permitted. Feed to
    [Grid_accounts.Sandbox.of_policy_clause] for policy-derived
    enforcement. *)

val of_texts : (string * string) list -> Callout.t
(** Build a PEP from (source name, policy text) pairs. Unparseable or
    invalid policy text yields a PEP that fails closed with
    [System_error] on every query. *)
