(** SHA-256 message digest (FIPS 180-4), implemented from scratch.

    Used for certificate fingerprints and as the hash underlying
    {!Hmac.sha256}. Verified against the FIPS test vectors in the test
    suite. *)

type t = string
(** A digest: exactly 32 raw bytes. *)

val digest : string -> t

val digest_hex : string -> string
(** The hex encoding of [digest msg]. *)

(** {1 Incremental hashing} *)

type ctx
(** A running hash. [feed] any number of times, then [finish] once. *)

val init : unit -> ctx

val feed : ctx -> string -> unit

val finish : ctx -> t
(** The digest of everything fed. The context is spent afterwards. *)

val midstate : ctx -> string
(** The 32-byte chaining value after the whole blocks fed so far. Raises
    [Invalid_argument] unless a whole number of 64-byte blocks was fed. *)

val resume : string -> off:int -> blocks:int -> ctx
(** [resume s ~off ~blocks] continues from the {!midstate} stored at
    [s.[off]], as if [blocks] 64-byte blocks had been fed. *)
