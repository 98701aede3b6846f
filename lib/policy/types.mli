(** Policy language abstract syntax (paper Section 5.1). *)

module Action : sig
  type t = Start | Cancel | Information | Signal

  val to_string : t -> string
  val of_string : string -> t option
  val all : t list
  val equal : t -> t -> bool
end

type cvalue =
  | Str of string
  | Null  (** the paper's [NULL]: absence of a value *)
  | Self  (** the paper's [self]: the requesting identity *)

(** Without concrete-syntax quoting, for carriers with their own
    escaping (the XACML front end). *)
val cvalue_to_plain : cvalue -> string
val cvalue_equal : cvalue -> cvalue -> bool

type constr = {
  attribute : string;
  op : Grid_rsl.Ast.op;
  values : cvalue list;
}

val constr_to_string : constr -> string

type clause = constr list

val clause_to_string : clause -> string

type statement_kind =
  | Grant        (** permits requests matching one of its clauses *)
  | Requirement  (** obliges matching requests to satisfy its constraints *)

type statement = {
  kind : statement_kind;
  subject_pattern : Grid_gsi.Dn.t;
  clauses : clause list;
}

type t = statement list

val to_string : t -> string

val statement_applies : statement -> subject:Grid_gsi.Dn.t -> bool
(** Subject-pattern prefix match. *)

(** The request judged by a policy evaluation point. *)
type request = {
  subject : Grid_gsi.Dn.t;
  action : Action.t;
  job : Grid_rsl.Ast.clause option;
  jobowner : Grid_gsi.Dn.t option;
  jobtag : string option;
}

val start_request : subject:Grid_gsi.Dn.t -> job:Grid_rsl.Ast.clause -> request

val management_request :
  subject:Grid_gsi.Dn.t ->
  action:Action.t ->
  jobowner:Grid_gsi.Dn.t ->
  jobtag:string option ->
  request

val pp_request : request Fmt.t
