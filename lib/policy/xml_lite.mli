(** Minimal XML reader/writer used by the {!Xacml} policy front end. *)

type t = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
  text : string;
}

exception Parse_error of { pos : int; message : string }

val parse : string -> t
(** Parse one document. Raises {!Parse_error}. *)

val attr : t -> string -> string option
val children_named : t -> string -> t list
val child_named : t -> string -> t option

val to_string : t -> string
(** Render with an XML prolog and 2-space indentation; round-trips
    through {!parse}. *)

val element : ?attrs:(string * string) list -> ?text:string -> string -> t list -> t
