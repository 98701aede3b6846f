(** Mutual authentication: the GSI handshake producing a security context. *)

type context = { peer : Dn.t  (** the authenticated effective grid identity *) }

type error =
  | Credential_error of Credential.error
  | Challenge_mismatch

val error_to_string : error -> string

val fresh_challenge : unit -> string

val authenticate :
  trust:Ca.Trust_store.store ->
  now:Grid_sim.Clock.time ->
  challenge:string ->
  Credential.t ->
  (context, error) result
(** Verify a credential bound to the given challenge. *)
