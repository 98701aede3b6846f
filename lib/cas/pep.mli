(** Resource-side CAS policy evaluation point. *)

type clock = unit -> Grid_sim.Clock.time

val callout : cas_key:Grid_crypto.Keypair.public -> now:clock -> Grid_callout.Callout.t
(** Verify the capability carried in the requester's credential against
    the trusted CAS key, then evaluate its embedded policy. Fails closed
    without a credential or capability. *)
