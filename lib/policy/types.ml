(* Policy language abstract syntax (Section 5.1 of the paper).

   A policy is a list of statements. Each statement relates a subject
   pattern (a DN prefix: "a user, or a group of users") to clauses written
   in RSL relation syntax over the job-request attributes, extended with:

     action    - start | cancel | information | signal
     jobowner  - DN of the job initiator (management requests)
     jobtag    - the job-group tag (paper's new RSL parameter)
     NULL      - the special "no value" marker
     self      - the requesting user's own identity

   Statements come in two forms, as in Figure 3:

     requirement ("&" before the subject): whenever its action-guards
       match a request from a matching subject, the remaining constraints
       must hold or the request is denied;

     grant: the request is permitted if some clause of some applicable
       grant is fully satisfied. Absent any applicable satisfied grant the
       default is deny ("unless a specific stipulation has been made, an
       action will not be allowed"). *)

module Action = struct
  type t = Start | Cancel | Information | Signal

  let to_string = function
    | Start -> "start"
    | Cancel -> "cancel"
    | Information -> "information"
    | Signal -> "signal"

  let of_string s =
    match String.lowercase_ascii s with
    | "start" -> Some Start
    | "cancel" -> Some Cancel
    | "information" -> Some Information
    | "signal" -> Some Signal
    | _ -> None

  let all = [ Start; Cancel; Information; Signal ]
  let equal = ( = )
  let pp ppf a = Fmt.string ppf (to_string a)
end

(* Constraint values extend RSL literals with the two special markers. *)
type cvalue =
  | Str of string
  | Null
  | Self

let cvalue_to_string = function
  | Str s -> if Grid_rsl.Ast.needs_quoting s then Printf.sprintf "%S" s else s
  | Null -> "NULL"
  | Self -> "self"

(* Unquoted rendering for carriers with their own escaping (XML). *)
let cvalue_to_plain = function
  | Str s -> s
  | Null -> "NULL"
  | Self -> "self"

let cvalue_equal a b =
  match (a, b) with
  | Str x, Str y -> String.equal x y
  | Null, Null | Self, Self -> true
  | (Str _ | Null | Self), _ -> false

type constr = {
  attribute : string; (* lowercase *)
  op : Grid_rsl.Ast.op;
  values : cvalue list; (* non-empty *)
}

let constr_to_string c =
  Printf.sprintf "(%s %s %s)" c.attribute
    (Grid_rsl.Ast.op_to_string c.op)
    (String.concat " " (List.map cvalue_to_string c.values))

type clause = constr list

let clause_to_string clause = "&" ^ String.concat "" (List.map constr_to_string clause)

type statement_kind =
  | Grant
  | Requirement

type statement = {
  kind : statement_kind;
  subject_pattern : Grid_gsi.Dn.t; (* matches any DN it prefixes *)
  clauses : clause list;           (* non-empty *)
}

type t = statement list

let statement_to_string st =
  let prefix = match st.kind with Requirement -> "&" | Grant -> "" in
  Printf.sprintf "%s%s:\n  %s" prefix
    (Grid_gsi.Dn.to_string st.subject_pattern)
    (String.concat "\n  " (List.map clause_to_string st.clauses))

let to_string policy = String.concat "\n" (List.map statement_to_string policy)

let statement_applies st ~subject = Grid_gsi.Dn.is_prefix st.subject_pattern subject

(* The request a policy evaluation point judges. For [Start], [job] carries
   the submitted RSL clause; for management actions, [jobowner] and
   [jobtag] describe the target job (taken from the job manager's record of
   it, not from the requester). *)
type request = {
  subject : Grid_gsi.Dn.t;
  action : Action.t;
  job : Grid_rsl.Ast.clause option;
  jobowner : Grid_gsi.Dn.t option;
  jobtag : string option;
}

let start_request ~subject ~job = { subject; action = Action.Start; job = Some job; jobowner = None; jobtag = None }

let management_request ~subject ~action ~jobowner ~jobtag =
  { subject; action; job = None; jobowner = Some jobowner; jobtag }

let pp_request ppf r =
  Fmt.pf ppf "request{%a %a%a}" Grid_gsi.Dn.pp r.subject Action.pp r.action
    (Fmt.option (fun ppf c -> Fmt.pf ppf " %s" (Grid_rsl.Ast.clause_to_string c)))
    r.job
