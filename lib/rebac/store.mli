(** Multi-versioned relation-tuple store with userset-rewrite rules.

    Every write or delete bumps a revision counter and returns the new
    head {!Zookie.t}; tuples record the revision interval over which
    they are visible, so {!check} can answer against the head, any
    same-epoch snapshot, or "at least as fresh as this token". *)

type t

type rewrite =
  | This  (** the relation's own stored (and contextual) tuples *)
  | Computed_userset of string
      (** membership of another relation on the same object *)
  | Tuple_to_userset of {
      tupleset : string;
      computed : string;
    }
      (** walk [tupleset] tuples to other objects and test [computed]
          there — group nesting, folder inheritance *)
  | Union of rewrite list

val create : ?epoch:int -> unit -> t
(** An empty store at revision 0. [epoch] (default 0) should come from
    {!Grid_policy.Compile.fresh_epoch} when the store backs a PEP. *)

val epoch : t -> int

val set_epoch : t -> int -> unit
(** Raises [Invalid_argument] if the epoch would decrease. *)

val revision : t -> int

val head : t -> Zookie.t
(** The token naming the current snapshot. *)

val set_rule : t -> namespace:string -> relation:string -> rewrite -> unit
(** Relations with no explicit rule behave as {!This}. *)

val write : t -> Tuple.t -> Zookie.t
(** Idempotent on content, but always advances the revision. *)

val write_batch : t -> Tuple.t list -> Zookie.t
(** One revision for the whole batch. *)

val delete : t -> Tuple.t -> Zookie.t
(** Ends the visibility of matching live tuples; earlier snapshots still
    see them. *)

val tuple_count : t -> int
(** Live tuples at head. *)

type consistency =
  | Latest  (** head revision *)
  | At_least of Zookie.t
      (** any snapshot no older than the token — with a single store
          that is the head, but a token newer than the head (e.g. from a
          store this replica has not caught up with) is refused *)
  | Snapshot of Zookie.t  (** exactly the token's same-epoch revision *)

type check_error =
  | Depth_exceeded of int  (** graph deeper than the budget: indeterminate *)
  | Future_token of {
      token : Zookie.t;
      head : Zookie.t;
    }
  | Snapshot_gone of {
      token : Zookie.t;
      epoch : int;
    }  (** the token's epoch predates the current store *)

val check_error_to_string : check_error -> string

val check :
  ?budget:int ->
  ?context:Tuple.t list ->
  ?consistency:consistency ->
  t ->
  obj:Tuple.obj ->
  relation:string ->
  user:string ->
  (bool, check_error) result
(** Is [user] a member of [obj#relation] at the requested snapshot?
    Breadth-first userset expansion with a visited set (cycles
    terminate) and a depth budget (default {!default_budget});
    exceeding the budget is an error, not a deny. [context] supplies
    request-scoped tuples visible at every snapshot but never stored. *)

val default_budget : int
