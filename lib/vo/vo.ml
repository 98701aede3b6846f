(* The Virtual Organization.

   Holds membership (DN -> groups), the jobtag registry ("at present
   jobtags are statically defined by a policy administrator", Section 5.1),
   per-group usage profiles, and compiles everything into a VO policy: the
   artifact a resource's PEP evaluates alongside the resource owner's own
   policy. *)

type member = {
  dn : Grid_gsi.Dn.t;
  groups : string list;
}

type t = {
  name : string;
  mutable members : member list;
  mutable profiles : Profile.t list;
  mutable jobtags : string list;
  mutable require_jobtag_on_start : bool;
  (* Subject prefix covering all VO members, used for VO-wide
     requirements; None disables prefix-wide statements. *)
  member_prefix : Grid_gsi.Dn.t option;
}

let create ?member_prefix name =
  { name;
    members = [];
    profiles = [];
    jobtags = [];
    require_jobtag_on_start = false;
    member_prefix = Option.map Grid_gsi.Dn.parse member_prefix }

let name t = t.name

let add_member t ~dn ~groups =
  let dn = Grid_gsi.Dn.parse dn in
  if List.exists (fun m -> Grid_gsi.Dn.equal m.dn dn) t.members then
    invalid_arg ("Vo.add_member: already a member: " ^ Grid_gsi.Dn.to_string dn);
  t.members <- t.members @ [ { dn; groups } ]

let remove_member t ~dn =
  t.members <- List.filter (fun m -> not (Grid_gsi.Dn.equal m.dn dn)) t.members

let is_member t dn = List.exists (fun m -> Grid_gsi.Dn.equal m.dn dn) t.members

let groups_of t dn =
  match List.find_opt (fun m -> Grid_gsi.Dn.equal m.dn dn) t.members with
  | Some m -> m.groups
  | None -> []

let in_group t dn group = List.mem group (groups_of t dn)

let add_profile t profile =
  if List.exists (fun p -> p.Profile.group = profile.Profile.group) t.profiles then
    invalid_arg ("Vo.add_profile: duplicate profile for group " ^ profile.Profile.group);
  t.profiles <- t.profiles @ [ profile ]

let register_jobtag t tag =
  if not (List.mem tag t.jobtags) then t.jobtags <- t.jobtags @ [ tag ]

let jobtags t = t.jobtags

let require_jobtag t = t.require_jobtag_on_start <- true

(* --- Policy compilation ---------------------------------------------- *)

let requirement_statements t =
  match (t.require_jobtag_on_start, t.member_prefix) with
  | true, Some prefix ->
    [ { Grid_policy.Types.kind = Grid_policy.Types.Requirement;
        subject_pattern = prefix;
        clauses =
          [ [ { Grid_policy.Types.attribute = "action";
                op = Grid_rsl.Ast.Eq;
                values = [ Grid_policy.Types.Str "start" ] };
              { Grid_policy.Types.attribute = "jobtag";
                op = Grid_rsl.Ast.Neq;
                values = [ Grid_policy.Types.Null ] } ] ] } ]
  | true, None | false, _ -> []

let member_statements t =
  List.filter_map
    (fun m ->
      let clauses =
        List.concat_map
          (fun group ->
            match List.find_opt (fun p -> p.Profile.group = group) t.profiles with
            | Some profile -> Profile.to_clauses profile
            | None -> [])
          m.groups
      in
      if clauses = [] then None
      else
        Some
          { Grid_policy.Types.kind = Grid_policy.Types.Grant;
            subject_pattern = m.dn;
            clauses })
    t.members

let compile_policy t : Grid_policy.Types.t =
  requirement_statements t @ member_statements t

let policy_source t =
  Grid_policy.Combine.source ~name:t.name (compile_policy t)
