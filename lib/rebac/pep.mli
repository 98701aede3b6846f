(** The relationship-based PEP behind the GRAM callout API — the ReBAC
    sibling of {!Grid_callout.File_pep.Compiled}.

    Policies compile to a tuple graph under a fresh policy epoch;
    [reload] recompiles under a strictly larger one and emits the same
    ["policy.epoch"] event as the flat-file PEP. Graph-side failures
    (depth budget, token from the future, expired snapshot) answer
    [System_error], never [Denied]. *)

type t

val create : ?obs:Grid_obs.Obs.t -> Grid_policy.Combine.source list -> t
val reload : t -> Grid_policy.Combine.source list -> unit

val store : t -> Store.t
(** The live tuple store: ad-hoc relationship writes ride alongside the
    compiled plan and advance the revision (not the epoch). *)

val epoch : t -> int
val revision : t -> int

val head : t -> Zookie.t
(** The consistency token naming the current snapshot. *)

val batch : t -> Grid_callout.Callout.Batch.t
(** Decisions at the head snapshot: structurally equal requests in a
    batch share one graph expansion (one decision per distinct
    question), answers in request order. A single query
    ({!Grid_callout.Callout.Batch.check}) is a batch of one. *)

val callout_with : ?consistency:Store.consistency -> t -> Grid_callout.Callout.t
(** One query at a time, with [consistency] pinning the decision to a
    caller token ([At_least] / [Snapshot]) — the one path that takes a
    token, so it has no batch. *)

val of_sources : Grid_policy.Combine.source list -> Grid_callout.Callout.t
(** [Batch.check (batch (create sources))]. *)
