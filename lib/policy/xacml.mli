(** XACML-style XML front end (the Section 6.3 replacement syntax).

    Parses a simplified XACML-shaped document into the same {!Types.t}
    the RSL-based concrete syntax produces, and exports policies back to
    XML. Evaluation, combination and every PEP are syntax-agnostic. *)

exception Error of string

val parse : string -> Types.t
(** Raises {!Error} on malformed XML or unsupported constructs. *)

val parse_result : string -> (Types.t, string) result

val to_string : ?policy_id:string -> Types.t -> string
(** Round-trips: [parse (to_string p)] is decision-equivalent to [p]
    (verified by property test). *)
