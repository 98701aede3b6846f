(** X.509-style distinguished names ("/O=Grid/OU=mcs.anl.gov/CN=..."). *)

type rdn = { attr : string; value : string }
type t = rdn list

exception Parse_error of string

val parse : string -> t
(** Parse "/A=v/B=w/..." form. Raises {!Parse_error} on malformed input. *)

val to_string : t -> string
val pp : t Fmt.t
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Agrees with {!equal}, and reads every component, so DNs that share
    a long prefix still spread over hash buckets. *)

val is_prefix : t -> t -> bool
(** [is_prefix p t] holds when [p]'s components are the leading components
    of [t]; the policy language's group statements use this. Reflexive. *)

val common_name : t -> string option
(** Value of the last CN component, if any. *)

val append : t -> attr:string -> value:string -> t
(** Extend with one component (proxy certificates append "CN=proxy").
    Raises [Invalid_argument] on empty attribute or value. *)

val length : t -> int
