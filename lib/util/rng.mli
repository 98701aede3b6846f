(** Deterministic pseudo-random number generator (SplitMix64).

    Explicit-state PRNG used by workload generators and the latency model so
    that simulations are reproducible given a seed. *)

type t

val create : seed:int -> t

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform choice. Raises [Invalid_argument] on the empty list. *)
