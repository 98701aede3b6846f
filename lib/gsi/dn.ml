(* X.509-style distinguished names.

   Grid identities look like "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate
   Keahey": an ordered sequence of attribute=value components. The policy
   language matches users either exactly or by DN prefix (the paper's group
   statements name the "/O=Grid/O=Globus/OU=mcs.anl.gov" prefix), so prefix
   matching is first-class here. *)

type rdn = { attr : string; value : string }
type t = rdn list

exception Parse_error of string

let parse s =
  let s = Grid_util.Strings.strip s in
  if s = "" then raise (Parse_error "empty distinguished name");
  if s.[0] <> '/' then raise (Parse_error ("distinguished name must start with '/': " ^ s));
  let components = String.split_on_char '/' (String.sub s 1 (String.length s - 1)) in
  List.map
    (fun comp ->
      match String.index_opt comp '=' with
      | None -> raise (Parse_error ("component without '=': " ^ comp))
      | Some i ->
        let attr = String.sub comp 0 i in
        let value = String.sub comp (i + 1) (String.length comp - i - 1) in
        if attr = "" then raise (Parse_error ("empty attribute in: " ^ comp));
        if value = "" then raise (Parse_error ("empty value in: " ^ comp));
        { attr; value })
    components

let add_to_buffer buf t =
  List.iter
    (fun { attr; value } ->
      Buffer.add_char buf '/';
      Buffer.add_string buf attr;
      Buffer.add_char buf '=';
      Buffer.add_string buf value)
    t

let to_string t =
  let buf = Buffer.create 64 in
  add_to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Fmt.string ppf (to_string t)

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> x.attr = y.attr && x.value = y.value) a b

let compare a b = String.compare (to_string a) (to_string b)

(* Every component is folded in: DNs of one organization share long
   prefixes, and the polymorphic hash stops after ten meaningful words. *)
let hash t =
  List.fold_left
    (fun h { attr; value } -> Hashtbl.seeded_hash (Hashtbl.seeded_hash h attr) value)
    0 t

(* [is_prefix p t]: every component of [p] matches the corresponding leading
   component of [t]. A DN is a prefix of itself. *)
let is_prefix p t =
  let rec go p t =
    match (p, t) with
    | [], _ -> true
    | _, [] -> false
    | x :: p', y :: t' -> x.attr = y.attr && x.value = y.value && go p' t'
  in
  go p t

let common_name t =
  let rec last_cn acc = function
    | [] -> acc
    | { attr; value } :: rest -> last_cn (if attr = "CN" then Some value else acc) rest
  in
  last_cn None t

let append t ~attr ~value =
  if attr = "" || value = "" then invalid_arg "Dn.append: empty attribute or value";
  t @ [ { attr; value } ]

let length = List.length
