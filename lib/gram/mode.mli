(** GRAM operating modes: unmodified GT2 vs the paper's extension. *)

type t =
  | Gt2_baseline
  | Extended of {
      authorization : Grid_callout.Callout.Batch.t;
          (** two-lane callout: per-request consultations on the single
              lane, whole management batches on the many lane *)
      advice : (Grid_callout.Callout.query -> Grid_policy.Types.clause option) option;
          (** policy-derived-enforcement hook: the clause an authorized
              decision rested on, for sandbox configuration *)
      backend : string;
          (** PEP implementation behind the callout; the [backend] label
              on authorization metrics *)
    }

val extended :
  ?advice:(Grid_callout.Callout.query -> Grid_policy.Types.clause option) ->
  ?backend:string ->
  Grid_callout.Callout.t ->
  t
(** [backend] defaults to ["custom"]. The plain callout is lifted with
    the derived many lane ({!Grid_callout.Callout.Batch.of_callout}), so
    every existing callout keeps working unchanged. *)

val extended_batch :
  ?advice:(Grid_callout.Callout.query -> Grid_policy.Types.clause option) ->
  ?backend:string ->
  Grid_callout.Callout.Batch.t ->
  t
(** {!extended} for a natively batched callout (e.g.
    {!Grid_callout.File_pep.Compiled.batch}): the many lane answers whole
    management batches in one amortized pass. *)

val is_extended : t -> bool
val to_string : t -> string

val extended_from_config : Grid_callout.Config.t -> Grid_callout.Registry.t -> t
(** Resolve the job-manager authorization callout from configuration; a
    misconfigured callout fails closed at invocation time. *)

val instrument : ?epoch:(unit -> int) -> obs:Grid_obs.Obs.t -> t -> t
(** Wrap the Extended callout with [Grid_callout.Callout.instrument] under
    the mode's backend label; the baseline is returned unchanged. [epoch]
    (typically [File_pep.Compiled.epoch]) stamps every decision event
    with the policy epoch it was made under. *)

val with_cache : cache:Grid_callout.Cache.t -> t -> t
(** Memoize the Extended callout through an authorization decision cache
    ([Grid_callout.Cache.with_cache]), scoped under the mode's backend
    label; the baseline is returned unchanged. Apply before {!instrument}
    so cache hits still count in [authz_decisions_total]. *)
