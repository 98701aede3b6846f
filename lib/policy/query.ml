(* Policy analysis queries.

   Administrators of a default-deny system need to answer "what did I
   actually grant?" without constructing test requests: what can this
   user do, which executables may they start, who can manage jobs
   carrying a given tag. These are syntactic analyses over the policy
   (sound for the common constraint shapes; a clause that constrains an
   attribute the analysis does not model is still reported, with its
   constraints shown). *)

type granted_clause = {
  statement_index : int;
  actions : Types.Action.t list; (* all actions when unconstrained *)
  clause : Types.clause;
}

(* Actions a clause's action-constraints admit. *)
let actions_of_clause (clause : Types.clause) : Types.Action.t list =
  let constraints =
    List.filter (fun (c : Types.constr) -> c.Types.attribute = "action") clause
  in
  List.filter
    (fun action ->
      let name = Types.Action.to_string action in
      List.for_all
        (fun (c : Types.constr) ->
          let values =
            List.filter_map
              (function Types.Str s -> Some s | Types.Null | Types.Self -> None)
              c.Types.values
          in
          match c.Types.op with
          | Grid_rsl.Ast.Eq -> List.mem name values
          | Grid_rsl.Ast.Neq -> not (List.mem name values)
          | Grid_rsl.Ast.Lt | Grid_rsl.Ast.Gt | Grid_rsl.Ast.Le | Grid_rsl.Ast.Ge -> false)
        constraints)
    Types.Action.all

(* Every grant clause applicable to a subject. *)
let grants_for (policy : Types.t) ~subject : granted_clause list =
  List.concat
    (List.mapi
       (fun statement_index (st : Types.statement) ->
         if st.Types.kind <> Types.Grant || not (Types.statement_applies st ~subject) then []
         else
           List.map
             (fun clause ->
               { statement_index;
                 actions = actions_of_clause clause;
                 clause })
             st.Types.clauses)
       policy)

(* Requirements that constrain a subject. *)
let requirements_for (policy : Types.t) ~subject : Types.statement list =
  List.filter
    (fun (st : Types.statement) ->
      st.Types.kind = Types.Requirement && Types.statement_applies st ~subject)
    policy

let may_perform (policy : Types.t) ~subject action =
  List.exists
    (fun g -> List.exists (Types.Action.equal action) g.actions)
    (grants_for policy ~subject)

(* Values an attribute is pinned to across the subject's start grants
   (e.g. which executables they may launch). *)
let allowed_values (policy : Types.t) ~subject ~attribute : string list =
  grants_for policy ~subject
  |> List.filter (fun g -> List.exists (Types.Action.equal Types.Action.Start) g.actions)
  |> List.concat_map (fun g ->
         List.concat_map
           (fun (c : Types.constr) ->
             if c.Types.attribute = attribute && c.Types.op = Grid_rsl.Ast.Eq then
               List.filter_map
                 (function Types.Str s -> Some s | Types.Null | Types.Self -> None)
                 c.Types.values
             else [])
           g.clause)
  |> List.sort_uniq compare

(* Subject patterns that hold a given management right over a jobtag.
   Syntactic: a clause qualifies when it admits the action and its
   jobtag constraints are compatible with the tag (no constraint means
   any tag). *)
let who_can (policy : Types.t) ~action ?jobtag () : Grid_gsi.Dn.t list =
  let tag_ok (clause : Types.clause) =
    List.for_all
      (fun (c : Types.constr) ->
        if c.Types.attribute <> "jobtag" then true
        else
          let values =
            List.filter_map
              (function Types.Str s -> Some s | Types.Null | Types.Self -> None)
              c.Types.values
          in
          match (c.Types.op, jobtag) with
          | Grid_rsl.Ast.Eq, Some tag -> List.mem tag values
          | Grid_rsl.Ast.Eq, None -> false (* requires a tag we don't have *)
          | Grid_rsl.Ast.Neq, Some tag ->
            if c.Types.values = [ Types.Null ] then true else not (List.mem tag values)
          | Grid_rsl.Ast.Neq, None -> c.Types.values <> [ Types.Null ]
          | (Grid_rsl.Ast.Lt | Grid_rsl.Ast.Gt | Grid_rsl.Ast.Le | Grid_rsl.Ast.Ge), _ ->
            false)
      clause
  in
  List.filter_map
    (fun (st : Types.statement) ->
      if
        st.Types.kind = Types.Grant
        && List.exists
             (fun clause ->
               List.exists (Types.Action.equal action) (actions_of_clause clause)
               && tag_ok clause)
             st.Types.clauses
      then Some st.Types.subject_pattern
      else None)
    policy
  |> List.sort_uniq Grid_gsi.Dn.compare

(* Human-readable rights report. *)
let pp_rights ppf (policy, subject) =
  let grants = grants_for policy ~subject in
  let requirements = requirements_for policy ~subject in
  Fmt.pf ppf "@[<v>Rights of %a:@," Grid_gsi.Dn.pp subject;
  if grants = [] then Fmt.pf ppf "  (none: default deny)@,"
  else
    List.iter
      (fun g ->
        Fmt.pf ppf "  [stmt %d] %s: %s@," (g.statement_index + 1)
          (Grid_util.Strings.concat_map "/" Types.Action.to_string g.actions)
          (Types.clause_to_string g.clause))
      grants;
  if requirements <> [] then begin
    Fmt.pf ppf "Subject to requirements:@,";
    List.iter
      (fun (st : Types.statement) ->
        List.iter
          (fun clause -> Fmt.pf ppf "  %s@," (Types.clause_to_string clause))
          st.Types.clauses)
      requirements
  end;
  Fmt.pf ppf "@]"
