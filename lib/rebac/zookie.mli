(** Zanzibar-style consistency tokens.

    A zookie names a snapshot of the relation-tuple store as a
    [(policy epoch, store revision)] pair, ordered lexicographically.
    The epoch is drawn from the same process-global counter as compiled
    policy epochs ({!Grid_policy.Compile.fresh_epoch}), so a policy
    reload — which rebuilds the store under a fresh epoch — always
    yields strictly newer tokens; decision caches fold the revision into
    their keys the same way they fold the epoch. *)

type t

val make : epoch:int -> revision:int -> t
(** Raises [Invalid_argument] on negative components. *)

val epoch : t -> int
val revision : t -> int

val equal : t -> t -> bool

val newer_than : t -> t -> bool
(** [newer_than a b] is [compare a b > 0]. *)

val to_string : t -> string
(** [zk:<epoch>:<revision>:<digest>]; the digest makes corrupted tokens
    detectable ({!of_string} rejects them). *)

val of_string : string -> (t, string) result
