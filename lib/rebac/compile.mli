(** Compiling Figure-3-class policies ({!Grid_policy.Types.policy}) into
    relation tuples plus rewrite rules, and the graph-backed decision
    procedure over them.

    Subject applicability (DN-prefix match) becomes graph reachability
    over a trie of pattern prefixes; residual clause evaluation reuses
    the exported {!Grid_policy.Eval} primitives, so decisions — and
    reasons — are identical to {!Grid_policy.Compile.eval}, the property
    the [test_rebac] differential suite pins. *)

type t
(** A compiled plan: statement objects, trie tuples, rewrite rules. *)

val of_sources : Grid_policy.Combine.source list -> t
val of_policy : Grid_policy.Types.t -> t
(** One source, named ["policy"]. *)

val load : ?epoch:int -> t -> Store.t
(** A fresh store with the plan installed. *)

val decide :
  ?obs:Grid_obs.Obs.t ->
  ?consistency:Store.consistency ->
  t ->
  Store.t ->
  Grid_policy.Types.request ->
  (Grid_policy.Combine.combined_decision, Store.check_error) result
(** Conjunctive multi-source decision, mirroring
    {!Grid_policy.Combine.evaluate_compiled}: first denial wins, an
    empty source list fails closed; [Error] carries the graph-side
    failure (depth budget, future token, expired snapshot) — an
    authorization-system condition, not a policy answer. *)

(** Namespaces and relations of the encoding (exposed for tests and for
    hand-built tuples riding alongside compiled ones). *)

val member_rel : string

val group_obj : Grid_gsi.Dn.rdn list -> Tuple.obj
(** The trie node for a pattern prefix ([[]] is the root). *)
