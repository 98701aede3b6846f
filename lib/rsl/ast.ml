(* RSL abstract syntax.

   GT2's Resource Specification Language describes a job request as a
   conjunction of attribute relations:

     &(executable=/sandbox/test/test1)(count=4)(arguments="-v" "run")

   Attributes are case-insensitive (normalized to lowercase here). A
   relation may carry several values (a sequence). Values are literal
   strings or RSL substitution variables [$(NAME)]. The paper's policy
   language reuses this relation syntax, adding the comparison operators
   beyond [=] real GT2 RSL already allowed for resource constraints. *)

type op = Eq | Neq | Lt | Gt | Le | Ge

type value =
  | Literal of string
  | Variable of string
  | Binding of string * string
    (* a parenthesized (NAME value) pair, as in GT2's
       (rsl_substitution = (HOME /home/kate) (TAG NFC)) *)

type relation = {
  attribute : string; (* lowercase *)
  op : op;
  values : value list; (* at least one *)
}

(* A conjunction of relations: one job request. *)
type clause = relation list

type t =
  | Single of clause
  | Multi of clause list (* the "+" multirequest form *)

let op_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="

let normalize_attribute a = String.lowercase_ascii a

(* A value needs quoting when it contains RSL metacharacters. *)
let needs_quoting s =
  s = ""
  || String.exists
       (fun c ->
         Grid_util.Strings.is_space c
         || c = '(' || c = ')' || c = '&' || c = '+' || c = '=' || c = '!' || c = '<'
         || c = '>' || c = '"' || c = '$')
       s

let value_to_string = function
  | Literal s -> if needs_quoting s then Printf.sprintf "%S" s else s
  | Variable v -> Printf.sprintf "$(%s)" v
  | Binding (name, value) ->
    Printf.sprintf "(%s %s)" name
      (if needs_quoting value then Printf.sprintf "%S" value else value)

let relation_to_string r =
  Printf.sprintf "(%s %s %s)" r.attribute (op_to_string r.op)
    (String.concat " " (List.map value_to_string r.values))

let clause_to_string c = "&" ^ String.concat "" (List.map relation_to_string c)

let to_string = function
  | Single c -> clause_to_string c
  | Multi cs ->
    "+" ^ String.concat "" (List.map (fun c -> "(" ^ clause_to_string c ^ ")") cs)

let value_equal a b =
  match (a, b) with
  | Literal x, Literal y -> String.equal x y
  | Variable x, Variable y -> String.equal x y
  | Binding (n, v), Binding (n', v') -> String.equal n n' && String.equal v v'
  | (Literal _ | Variable _ | Binding _), _ -> false

let relation_equal a b =
  String.equal a.attribute b.attribute && a.op = b.op
  && List.length a.values = List.length b.values
  && List.for_all2 value_equal a.values b.values

let clause_equal a b =
  List.length a = List.length b && List.for_all2 relation_equal a b

let equal a b =
  match (a, b) with
  | Single x, Single y -> clause_equal x y
  | Multi xs, Multi ys ->
    List.length xs = List.length ys && List.for_all2 clause_equal xs ys
  | Single _, Multi _ | Multi _, Single _ -> false
