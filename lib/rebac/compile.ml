(* Compiling Figure-3-class policies into relation tuples.

   The RSL policy language decides subject applicability by DN-prefix
   match: a statement applies to a subject when its subject pattern is a
   leading segment of the subject's DN. That is a relationship question
   in disguise, and this module makes the disguise explicit:

     - Every prefix of every statement's subject pattern becomes a
       *group* object in a trie, [grp:<encoded prefix>]. Parent nodes
       carry a [child] tuple naming each one-component extension:

         grp:<P>#child@grp:<P + rdn>#member

       with the rewrite rule

         (grp, member) = Union [This; Tuple_to_userset (child -> member)]

       so membership at a deeper (more specific) node propagates to
       every prefix above it.

     - Each statement becomes [stmt:<source>/<index>] with

         stmt:<s>#subject@grp:<its full pattern>#member

       and the rule (stmt, applicable) = Computed_userset "subject", so
       "does this statement apply to this requester?" is a plain
       {!Store.check} on [stmt:<s>#applicable].

     - At request time the requester is grafted into the trie with one
       *contextual* tuple at the deepest trie node that is a structural
       prefix of their DN:

         grp:<deepest prefixing node>#member@user:<DN>

   Equivalence with [Types.statement_applies] (structural [Dn.is_prefix])
   is a chain argument: all prefixes of all patterns are nodes, so the
   nodes prefixing a given subject form a chain under the one-component
   [child] edges; the contextual tuple sits at the chain's deepest
   element, and expansion from any pattern node P reaches it exactly when
   P lies on the chain — i.e. exactly when P prefixes the subject. The
   QCheck differential suite ([test_rebac]) holds this compilation to
   decision-and-reason equality with [Compile.eval] over generated
   policy/request pairs.

   The decision procedure below ([decide]) mirrors [Eval.evaluate] and
   [Combine.evaluate_compiled] clause by clause — only the applicability
   test is swapped for graph expansion; residual constraint evaluation
   reuses the exported [Eval] primitives so the reasons (violated
   requirement, considered-clause counts, denying source) come out
   identical, not just the verdicts. *)

module Types = Grid_policy.Types
module Eval = Grid_policy.Eval
module Combine = Grid_policy.Combine

let group_ns = "grp"
let stmt_ns = "stmt"
let member_rel = "member"
let child_rel = "child"
let subject_rel = "subject"
let applicable_rel = "applicable"

(* --- Injective encodings ------------------------------------------------ *)

(* Object ids may not contain '#' or '@' (tuple syntax), so those bytes
   — legal in DN values — are percent-escaped before length-prefixing.
   Length prefixes over the escaped parts keep the whole encoding
   injective: no choice of attrs/values can collide, including values
   containing '/', '=', '\x00' or each other's separators. (The compiled
   RSL index had exactly such a collision before it, too, moved to
   length-prefixed keys; see test_policy_compile's edge-case suite.) *)
let escape s =
  let needs_escape c = c = '%' || c = '#' || c = '@' in
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        if needs_escape c then Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let encoded_part s =
  let e = escape s in
  Printf.sprintf "%d.%s" (String.length e) e

(* "p" then each rdn as <len>.attr<len>.value; the bare "p" is the trie
   root (the empty prefix, which prefixes every subject). *)
let prefix_id (rdns : Grid_gsi.Dn.rdn list) =
  "p"
  ^ String.concat ""
      (List.map
         (fun (r : Grid_gsi.Dn.rdn) -> encoded_part r.attr ^ encoded_part r.value)
         rdns)

let group_obj rdns = Tuple.obj ~namespace:group_ns ~id:(prefix_id rdns)

(* Keyed by source *position*, not name: nothing stops two sources from
   sharing a name, and colliding statement objects would cross-wire
   their subject tuples. *)
let stmt_obj ~source_index ~index =
  Tuple.obj ~namespace:stmt_ns ~id:(Printf.sprintf "%d.%d" source_index index)

(* --- The compiled plan -------------------------------------------------- *)

type compiled_statement = {
  st : Types.statement;
  stmt_obj : Tuple.obj;
}

type source_plan = {
  name : string;
  statements : compiled_statement list;
}

type t = {
  sources : source_plan list;
  nodes : (string, int) Hashtbl.t;  (* prefix_id -> depth, for context placement *)
  tuples : Tuple.t list;
  rules : (string * string * Store.rewrite) list;
}

let rules =
  [ (group_ns, member_rel,
     Store.Union
       [ Store.This;
         Store.Tuple_to_userset { tupleset = child_rel; computed = member_rel } ]);
    (stmt_ns, applicable_rel, Store.Computed_userset subject_rel) ]

let prefixes_of (dn : Grid_gsi.Dn.t) =
  (* shortest first: [], [r1], [r1;r2], ... *)
  List.rev
    (List.fold_left (fun (acc : Grid_gsi.Dn.t list) rdn ->
         match acc with
         | longest :: _ -> (longest @ [ rdn ]) :: acc
         | [] -> assert false)
       [ [] ] dn)

let of_sources (sources : Combine.source list) : t =
  let nodes = Hashtbl.create 64 in
  let tuples = ref [] in
  let add_node (prefix : Grid_gsi.Dn.t) =
    let id = prefix_id prefix in
    if not (Hashtbl.mem nodes id) then begin
      Hashtbl.add nodes id (List.length prefix);
      match List.rev prefix with
      | [] -> ()  (* the root has no parent *)
      | _ :: parent_rev ->
        let parent = List.rev parent_rev in
        tuples :=
          Tuple.make (group_obj parent) ~relation:child_rel
            (Tuple.Userset (Tuple.userset (group_obj prefix) member_rel))
          :: !tuples
    end
  in
  let plans =
    List.mapi
      (fun source_index (s : Combine.source) ->
        let statements =
          List.mapi
            (fun index (st : Types.statement) ->
              List.iter add_node (prefixes_of st.Types.subject_pattern);
              let stmt_obj = stmt_obj ~source_index ~index in
              tuples :=
                Tuple.make stmt_obj ~relation:subject_rel
                  (Tuple.Userset
                     (Tuple.userset (group_obj st.Types.subject_pattern) member_rel))
                :: !tuples;
              { st; stmt_obj })
            s.Combine.policy
        in
        { name = s.Combine.name; statements })
      sources
  in
  { sources = plans; nodes; tuples = List.rev !tuples; rules }

let of_policy policy = of_sources [ Combine.source ~name:"policy" policy ]

let install t store =
  List.iter (fun (namespace, relation, rw) -> Store.set_rule store ~namespace ~relation rw)
    t.rules;
  Store.write_batch store t.tuples

let load ?epoch t =
  let store = Store.create ?epoch () in
  ignore (install t store);
  store

(* The one contextual tuple grafting the requester into the trie: at the
   deepest node structurally prefixing the subject. No node prefixes the
   subject only when the policy set is empty (the root node prefixes
   everything) — then nothing applies and default-deny falls out. *)
let context_for t (subject : Grid_gsi.Dn.t) : Tuple.t list =
  let rec deepest = function
    | [] -> None
    | prefix :: shorter ->
      let id = prefix_id prefix in
      if Hashtbl.mem t.nodes id then Some prefix else deepest shorter
  in
  match deepest (List.rev (prefixes_of subject)) with
  | None -> []
  | Some prefix ->
    [ Tuple.make (group_obj prefix) ~relation:member_rel
        (Tuple.User (Grid_gsi.Dn.to_string subject)) ]

(* --- Decision procedure ------------------------------------------------- *)

exception Check_failed of Store.check_error

let applies store ?consistency ~context (cs : compiled_statement) ~user =
  match
    Store.check ~context ?consistency store ~obj:cs.stmt_obj
      ~relation:applicable_rel ~user
  with
  | Ok b -> b
  | Error e -> raise (Check_failed e)

(* [Eval.requirement_violation] is not exported; this is its text,
   against the exported [constr_satisfied]. *)
let is_action_guard (c : Types.constr) = c.Types.attribute = "action"

let requirement_violation ~subject view (clause : Types.clause) =
  let guards, obligations = List.partition is_action_guard clause in
  if not (List.for_all (Eval.constr_satisfied ~subject view) guards) then None
  else List.find_opt (fun c -> not (Eval.constr_satisfied ~subject view c)) obligations

(* Mirrors [Eval.evaluate] with the applicability scan swapped for graph
   checks; everything downstream of applicability is the same code
   shape, so decisions and reasons match the compiled RSL engine
   exactly. *)
let decide_source store ?consistency t (sp : source_plan)
    (request : Types.request) : Eval.decision =
  let subject = request.Types.subject in
  let view = Eval.View.of_request request in
  let context = context_for t subject in
  let user = Grid_gsi.Dn.to_string subject in
  let applicable =
    List.filter_map
      (fun cs ->
        if applies store ?consistency ~context cs ~user then Some cs.st else None)
      sp.statements
  in
  let violated =
    List.find_map
      (fun (st : Types.statement) ->
        if st.Types.kind <> Types.Requirement then None
        else
          List.find_map
            (fun clause ->
              match requirement_violation ~subject view clause with
              | Some constr ->
                Some
                  (Eval.Requirement_violated
                     { subject_pattern = st.Types.subject_pattern; constr })
              | None -> None)
            st.Types.clauses)
      applicable
  in
  match violated with
  | Some reason -> Eval.Deny reason
  | None ->
    let grants =
      List.filter (fun (st : Types.statement) -> st.Types.kind = Types.Grant) applicable
    in
    if grants = [] then Eval.Deny Eval.No_applicable_grant
    else
      let clauses = List.concat_map (fun (st : Types.statement) -> st.Types.clauses) grants in
      if List.exists (Eval.clause_satisfied ~subject view) clauses then Eval.Permit
      else Eval.Deny (Eval.No_satisfied_clause { considered = List.length clauses })

(* Mirrors [Combine.evaluate_compiled]: conjunctive, first denial wins,
   empty fails closed; per-source instrumentation under the same
   ["policy.eval"] span and [policy_eval_total] counter vocabulary. *)
let decide ?obs ?consistency t store (request : Types.request) :
    (Combine.combined_decision, Store.check_error) result =
  let rec go = function
    | [] -> Combine.Permit
    | sp :: rest -> begin
      match
        Eval.observed_with ?obs ~source:sp.name
          ~eval:(fun req -> decide_source store ?consistency t sp req)
          request
      with
      | Eval.Permit -> go rest
      | Eval.Deny reason -> Combine.Deny { source = sp.name; reason }
    end
  in
  if t.sources = [] then
    Ok (Combine.Deny { source = "(none)"; reason = Eval.No_applicable_grant })
  else match go t.sources with
    | d -> Ok d
    | exception Check_failed e -> Error e
