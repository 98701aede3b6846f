(** Presented grid credentials: certificate chain + proof of possession. *)

type t = {
  chain : Cert.t list;
  proof : string;
  challenge : string;
}

type error =
  | Empty_chain
  | Expired of Dn.t
  | Bad_signature of Dn.t
  | Broken_chain of { child : Dn.t; claimed_issuer : Dn.t }
  | Untrusted_root of Dn.t
  | Bad_proxy_name of Dn.t
  | Revoked of Dn.t
  | Bad_possession_proof

val error_to_string : error -> string

val of_identity : Identity.t -> challenge:string -> t
(** Build the credential an identity presents against a given challenge. *)

val validate :
  t -> trust:Ca.Trust_store.store -> now:Grid_sim.Clock.time -> (Dn.t, error) result
(** Full GSI-style validation (expiry, signatures, name chaining, proxy
    naming, root trust, possession proof). Returns the effective subject. *)

val is_limited : t -> bool
(** True when any certificate in the chain is a GSI limited proxy;
    services refuse job startup (but not authentication) for these. *)

val delegation_depth : t -> int
(** Number of proxy certificates in the chain. *)
