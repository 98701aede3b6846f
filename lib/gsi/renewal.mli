(** Credential renewal service (MyProxy stand-in): escrowed identities
    from which authorized renewers draw fresh proxies, keeping
    long-running jobs manageable after the submitting proxy expires. *)

type t

type error =
  | No_deposit of Dn.t
  | Renewer_not_authorized of { owner : Dn.t; renewer : Dn.t }
  | Renewer_authentication_failed of string
  | Escrowed_credential_expired of Dn.t

val error_to_string : error -> string

val create : ?obs:Grid_obs.Obs.t -> unit -> t

val deposit :
  t ->
  identity:Identity.t ->
  authorized_renewers:Dn.t list ->
  ?max_proxy_lifetime:Grid_sim.Clock.time ->
  now:Grid_sim.Clock.time ->
  unit ->
  [ `Deposited | `Replaced ]
(** Escrow an identity. Default proxy-lifetime cap: 12 h. A deposit
    under a subject that already holds one replaces it — reported as
    [`Replaced], counted ([renewal_redeposits_total]) and audited
    (["renewal.redeposit"]) because a silent replacement is a renewal
    hijack primitive. *)

val renewals : t -> int

val replacements : t -> int
(** Deposits that displaced an existing escrow. *)

val renew :
  t ->
  trust:Ca.Trust_store.store ->
  now:Grid_sim.Clock.time ->
  owner:Dn.t ->
  Credential.t ->
  (Identity.t, error) result
(** Authenticate the renewer, check the authorization list (self-renewal
    always allowed), and issue a fresh proxy of the escrowed identity
    for the deposit's lifetime limit. *)
