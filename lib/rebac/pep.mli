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

val callout : t -> Grid_callout.Callout.t
(** Decisions at the head snapshot. *)

val callout_with : ?consistency:Store.consistency -> t -> Grid_callout.Callout.t
(** [consistency] pins decisions to a caller token ([At_least] /
    [Snapshot]). *)

val batch : t -> Grid_callout.Callout.Batch.t
(** Native batch lane at the head snapshot: structurally equal requests
    in a batch share one graph expansion (one decision per distinct
    question), answers in request order — element-wise equal to mapping
    {!callout}. *)

val of_sources : ?obs:Grid_obs.Obs.t -> Grid_policy.Combine.source list -> Grid_callout.Callout.t
(** [callout (create ?obs sources)]. *)
