(** Principals: keypair plus CA-issued certificate, with GSI-style proxy
    delegation. *)

type t

val create :
  ca:Ca.t -> now:Grid_sim.Clock.time -> ?lifetime:Grid_sim.Clock.time -> string -> t
(** [create ~ca ~now dn] generates a keypair and has [ca] certify it. *)

val subject : t -> Dn.t
val certificate : t -> Cert.t

val chain : t -> Cert.t list
(** Leaf-first certificate chain down to (but excluding) the CA cert. *)

val secret_key : t -> Grid_crypto.Keypair.secret

val effective_subject : t -> Dn.t
(** The grid identity this principal acts as: for a proxy, the subject of
    the underlying end-entity certificate. *)

val limited_proxy_cn : string
(** "limited proxy": the CN marking GSI limited proxies. *)

val delegate :
  ?lifetime:Grid_sim.Clock.time -> ?extensions:Cert.extension list -> ?limited:bool ->
  t -> now:Grid_sim.Clock.time -> t
(** Issue an impersonation proxy: fresh keypair, subject extended with
    "CN=proxy" (or "CN=limited proxy" with [~limited:true]), certificate
    signed by this identity's key. *)

val is_limited : t -> bool
(** A limited proxy appears anywhere in the chain: limitation is
    inherited by further delegation. *)
