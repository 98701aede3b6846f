(** HMAC-SHA-256 (RFC 2104): the signature primitive of the simulated PKI. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte MAC of [msg] under [key]. *)

val sha256_hex : key:string -> string -> string

val verify : key:string -> mac:string -> string -> bool
(** Constant-time MAC verification. *)

val equal : string -> string -> bool
(** Constant-time string equality: the one way to compare MACs. *)

(** {1 Prepared keys} *)

type key = private string
(** A key with its padded blocks already hashed: the inner and outer
    SHA-256 midstates, 64 bytes. A MAC under it runs two compressions
    fewer than {!sha256}. *)

val prepare : string -> key

val mac : key -> string -> string
(** [mac (prepare k) msg] equals [sha256 ~key:k msg]. *)
