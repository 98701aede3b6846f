(** Certificate authorities and verifier trust stores. *)

type t

val create :
  ?lifetime:Grid_sim.Clock.time ->
  ?default_identity_lifetime:Grid_sim.Clock.time ->
  now:Grid_sim.Clock.time ->
  string ->
  t
(** [create ~now dn_string] builds a CA with a self-signed certificate and
    registers its key as verifiable. Default CA cert lifetime 24 h; default
    lifetime of issued identity certs 12 h. *)

val certificate : t -> Cert.t

val issue :
  ?lifetime:Grid_sim.Clock.time ->
  t ->
  now:Grid_sim.Clock.time ->
  subject:Dn.t ->
  public_key:Grid_crypto.Keypair.public ->
  Cert.t
(** Issue an end-entity certificate. *)

(** A verifier's set of trusted CA certificates, its revocation list and
    a memo of the certificate signatures it has verified.

    The memo is keyed on the certificate record itself, compared
    structurally, plus the issuer key: [Cert.t] is immutable, so an equal
    record renders the same signing bytes under the same signature, while
    a record copied with any field changed misses and is verified in full.
    It stores passed checks only, holds a small fixed number of them (it
    is cleared when full) and is flushed when an anchor is added. A hit is
    still refused when the issuer key has left the keystore. Validity,
    revocation, naming and proof of possession are not memoized. *)
module Trust_store : sig
  type store

  val create : unit -> store

  val add : store -> Cert.t -> unit
  (** Raises [Invalid_argument] if the certificate is not an Authority
      certificate. Idempotent. A new anchor flushes the memo. *)

  val find : store -> issuer:Dn.t -> Cert.t option

  val revoke : store -> Cert.t -> unit
  (** Add a certificate to the revocation list (by serial). *)

  val revoke_serial : store -> int -> unit
  val is_revoked : store -> Cert.t -> bool

  val verify_signature : store -> Cert.t -> issuer_key:Grid_crypto.Keypair.public -> bool
  (** {!Cert.verify_signature}, answered from the memo when this store has
      already verified the same certificate under the same key. *)
end
