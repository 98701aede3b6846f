(** Typed job description parsed from an RSL clause.

    Covers the standard GT2 attributes ([executable], [directory],
    [arguments], [count], [maxwalltime], [maxmemory], [queue]; [stdout]
    and [stderr] are validated but not kept) and the paper's [jobtag]
    extension. *)

type t = {
  clause : Ast.clause;
  executable : string;
  directory : string option;
  arguments : string list;
  count : int;
  max_wall_time : float option;  (** minutes *)
  max_memory : int option;       (** megabytes *)
  queue : string option;
  jobtag : string option;
}

type error =
  | Missing_attribute of string
  | Not_an_integer of { attribute : string; value : string }
  | Not_a_number of { attribute : string; value : string }
  | Unsupported_multirequest
  | Unbound_variable of string
  | Bad_value of { attribute : string; message : string }

val error_to_string : error -> string

val of_string : ?environment:(string * string) list -> string -> (t, error) result

val clause : t -> Ast.clause
val to_string : t -> string
