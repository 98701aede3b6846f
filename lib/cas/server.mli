(** The CAS server: authenticates community members and signs them
    capabilities embedding their slice of community policy. *)

type t

val create : vo:Grid_vo.Vo.t -> string -> t
(** Default capability lifetime: 8 simulated hours. *)

val public_key : t -> Grid_crypto.Keypair.public
(** What resources configure as the trusted CAS key. *)

val capabilities_issued : t -> int

val user_policy : t -> user:Grid_gsi.Dn.t -> Grid_policy.Types.t
(** The compiled community policy restricted to statements applying to
    [user]. *)

type grant_error =
  | Not_a_member
  | Authentication_failed of string

val grant_error_to_string : grant_error -> string

val grant :
  t ->
  trust:Grid_gsi.Ca.Trust_store.store ->
  now:Grid_sim.Clock.time ->
  Grid_gsi.Credential.t ->
  (Capability.t, grant_error) result

val grant_proxy :
  t ->
  trust:Grid_gsi.Ca.Trust_store.store ->
  now:Grid_sim.Clock.time ->
  Grid_gsi.Identity.t ->
  (Grid_gsi.Identity.t, grant_error) result
(** Issue a capability and wrap it into a fresh proxy of the identity, so
    it travels with subsequent requests. *)
