(** Policy analysis: syntactic "what did I grant?" queries for
    administrators of a default-deny system. *)

type granted_clause = {
  statement_index : int;
  actions : Types.Action.t list;
  clause : Types.clause;
}

val actions_of_clause : Types.clause -> Types.Action.t list
(** Actions the clause's action-constraints admit (all four when
    unconstrained). *)

val grants_for : Types.t -> subject:Grid_gsi.Dn.t -> granted_clause list

val requirements_for : Types.t -> subject:Grid_gsi.Dn.t -> Types.statement list

val may_perform : Types.t -> subject:Grid_gsi.Dn.t -> Types.Action.t -> bool
(** Syntactic: some applicable grant clause admits the action. *)

val allowed_values : Types.t -> subject:Grid_gsi.Dn.t -> attribute:string -> string list
(** Values the attribute is pinned to across the subject's start grants
    (e.g. ~attribute:"executable" lists launchable executables). *)

val who_can :
  Types.t -> action:Types.Action.t -> ?jobtag:string -> unit -> Grid_gsi.Dn.t list
(** Subject patterns holding the action (optionally over a jobtag). *)

val pp_rights : (Types.t * Grid_gsi.Dn.t) Fmt.t
