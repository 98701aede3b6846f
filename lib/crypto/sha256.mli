(** SHA-256 message digest (FIPS 180-4), implemented from scratch.

    Used for certificate fingerprints and as the hash underlying
    {!Hmac.sha256}. Verified against the FIPS test vectors in the test
    suite. *)

type t = string
(** A digest: exactly 32 raw bytes. *)

val digest : string -> t

val digest_hex : string -> string
(** The hex encoding of [digest msg]. *)
