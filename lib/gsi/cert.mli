(** Certificates: subject DN bound to a public key under an issuer
    signature, with validity window and extensions. *)

type kind =
  | End_entity
  | Authority
  | Proxy

type extension = { oid : string; critical : bool; payload : string }

type t = {
  serial : int;
  kind : kind;
  subject : Dn.t;
  issuer : Dn.t;
  public_key : Grid_crypto.Keypair.public;
  not_before : Grid_sim.Clock.time;
  not_after : Grid_sim.Clock.time;
  extensions : extension list;
  signature : string;
}

val make :
  kind:kind ->
  subject:Dn.t ->
  issuer:Dn.t ->
  public_key:Grid_crypto.Keypair.public ->
  not_before:Grid_sim.Clock.time ->
  not_after:Grid_sim.Clock.time ->
  extensions:extension list ->
  signing_key:Grid_crypto.Keypair.secret ->
  t
(** Issue a certificate, signing the canonical encoding of all fields. *)

val verify_signature : t -> issuer_key:Grid_crypto.Keypair.public -> bool

val valid_at : t -> now:Grid_sim.Clock.time -> bool

val find_extension : t -> string -> extension option

val fingerprint : t -> string
(** SHA-256 fingerprint over body and signature. *)
