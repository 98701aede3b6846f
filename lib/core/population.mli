(** Population-scale subject synthesis: 10^5-10^6 distinct DNs derived
    on demand from a seed, zipfian activity, and O(groups) policy via
    DN-prefix grants — no per-user state is ever materialized. *)

type t

val create : seed:int -> size:int -> t
(** A synthesizer for [size] distinct subjects. O(1) in [size]: only the
    seed, the size, a derived community tag and a churn counter are
    resident. Raises [Invalid_argument] when [size < 1]. *)

val size : t -> int

val churn : t -> unit
(** Advance the churn generation: {!source} afterwards grants different
    rights (count ceilings, sanctioned executables, admin manage tags).
    DNs and group membership are generation-independent — a subject's
    identity never changes, only what policy says about their group. *)

val sample : t -> Grid_util.Rng.t -> int
(** Draw a user rank zipfian(s=1): rank 0 is the most active subject.
    O(1) time and allocation — continuous inverse-CDF, no rank table. *)

val dn : t -> int -> string
(** The subject DN of a rank, deterministic in [(seed, rank)] and
    distinct across seeds (the community tag is seed-derived). Raises
    [Invalid_argument] out of [0, size). *)

val organization : t -> string
(** The community's DN root; every synthesized DN lives under it. *)

val jobtag : t -> int -> string
(** The jobtag this rank's group submits under. *)

val template : t -> Grid_util.Rng.t -> int -> string
(** A group-appropriate RSL body for one submission by this rank. *)

val admin_rank : t -> int
(** The first admin rank — the synthetic third-party manager. *)

val identity : t -> ca:Grid_gsi.Ca.t -> now:Grid_sim.Clock.time -> int -> Grid_gsi.Identity.t
(** Mint the rank's identity (deterministic keypair from the DN). The
    caller creates identities only for active arrivals, keeping resident
    credential state O(active jobs). *)

val policy : t -> Grid_policy.Types.t
(** The community policy at the current generation: one jobtag
    requirement on the root plus one grant statement per group prefix —
    O(groups) statements for the whole population. *)

val owner_policy : t -> Grid_policy.Types.t
(** The resource-owner side of admitting this community: start off the
    reserved queue, management open to the community policy. Combination
    is conjunctive with per-source default-deny, so these statements must
    be appended to the owner's own source (and {!policy} to the VO-side
    source) — a third stand-alone source would deny everyone else. *)
