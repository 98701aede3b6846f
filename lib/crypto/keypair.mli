(** Simulated asymmetric keypairs (see DESIGN.md §4 for the substitution).

    API shape matches an asymmetric signature scheme: the holder of the
    {!secret} signs; anyone holding the {!public} key verifies. Under the
    hood verification resolves the public key through a process-global
    trusted keystore (standing in for CA public-key distribution), so a
    signature by an {e unregistered} key never verifies. *)

type public
(** Public key: safe to embed in certificates. *)

type secret
(** Secret signing key, held as a prepared HMAC key ({!Hmac.key}). *)

type t

val generate : seed_material:string -> t
(** Deterministically derive a keypair from seed material (e.g. a subject
    name plus a nonce). Deterministic so simulations are reproducible. *)

val public : t -> public
val secret : t -> secret

val sign : secret -> string -> string
(** Hex-encoded signature of a message. *)

val register : t -> unit
(** Publish the keypair to the trusted keystore, enabling verification of
    its signatures. A CA does this for itself at creation. *)

val verify : public -> signature:string -> string -> bool
(** [verify pk ~signature msg] checks [signature] over [msg] against [pk]
    in constant time ({!Hmac.equal}). Returns [false] when [pk] is unknown
    to the keystore. *)

val reset_keystore : unit -> unit
(** Clear the trusted keystore (test setup). *)

val add_label : Buffer.t -> public -> unit
(** Append the key's short label, ["pub:"] and the first 12 hex digits of
    its id: the form certificates sign. *)
