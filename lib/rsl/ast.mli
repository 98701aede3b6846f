(** RSL abstract syntax: conjunctions of attribute relations. *)

type op = Eq | Neq | Lt | Gt | Le | Ge

type value =
  | Literal of string
  | Variable of string  (** an RSL substitution [$(NAME)] *)
  | Binding of string * string
      (** a parenthesized [(NAME value)] pair, used by
          [rsl_substitution] *)

type relation = {
  attribute : string;  (** normalized to lowercase *)
  op : op;
  values : value list; (** non-empty *)
}

type clause = relation list
(** A conjunction of relations: one job request. *)

type t =
  | Single of clause
  | Multi of clause list  (** the ["+"] multirequest form *)

val op_to_string : op -> string

val normalize_attribute : string -> string

val needs_quoting : string -> bool
(** True when a literal must be double-quoted to survive re-parsing. *)

val clause_to_string : clause -> string
val to_string : t -> string

val clause_equal : clause -> clause -> bool
val equal : t -> t -> bool
