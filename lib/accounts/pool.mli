(** Dynamic account pool: time-limited leases of template accounts to grid
    identities (paper Section 6.1).

    Per-call cost does not grow with the pool's history. Leases are indexed
    by account, holder and lease id, and kept in expiry order, so the
    sweep that every {!acquire} runs first stops at the first live lease.
    Below, [k] is the number of leases a call collects or counts as
    expired, and [r] the number of released accounts waiting for reuse
    below the pool's high-water mark. *)

type lease = private {
  lease_id : string;
  account : string;
  holder : Grid_gsi.Dn.t;
  granted_at : Grid_sim.Clock.time;
  mutable expires_at : Grid_sim.Clock.time;
      (** Moved only by the pool (renewal), which keeps its expiry order
          in step. *)
}

type t

type error =
  | Pool_exhausted of { size : int }
  | Unknown_lease of string

val error_to_string : error -> string

val create : ?prefix:string -> size:int -> lease_lifetime:Grid_sim.Clock.time -> unit -> t
(** Accounts are named [<prefix>NNN]; a name is rendered when its account
    is first leased. O(size) for the slot arrays. Raises
    [Invalid_argument] when [size <= 0]. *)

val acquire : t -> now:Grid_sim.Clock.time -> holder:Grid_gsi.Dn.t -> (lease, error) result
(** Reclaim expired leases, then grant (or renew) a lease for the holder.
    A holder with a live lease gets the same account back; a new holder
    gets the lowest-numbered free account. O(1 + k + log r) expected,
    when [now] is no earlier than any earlier call's; a [now] that goes
    backwards also walks past the leases that expire later than the
    granted one. *)

val release : t -> lease_id:string -> (unit, error) result
(** Return a lease's account to the pool, whether or not the lease has
    expired yet. O(log r) expected. *)

val expire : t -> now:Grid_sim.Clock.time -> int
(** Reclaim expired leases; returns the number collected. O(1 + k). *)

val holder_of : t -> account:string -> now:Grid_sim.Clock.time -> Grid_gsi.Dn.t option
(** The holder of [account]'s live lease. O(length of [account]). *)

val in_use : t -> now:Grid_sim.Clock.time -> int
(** Live leases at [now]. O(1 + k); collects nothing. *)

val available : t -> now:Grid_sim.Clock.time -> int
(** [size t - in_use t ~now]. O(1 + k). *)

type stats = { total_grants : int; total_reuses : int; total_exhaustions : int }

val stats : t -> stats
