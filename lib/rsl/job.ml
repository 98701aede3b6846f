(* Typed job-description view over an RSL clause.

   The Job Manager parses the user's RSL into this structure before talking
   to the local resource manager. Standard GT2 attributes plus the paper's
   [jobtag] extension (Section 5.2, "RSL parameters"). *)

type t = {
  clause : Ast.clause;
  executable : string;
  directory : string option;
  arguments : string list;
  count : int;
  max_wall_time : float option; (* minutes, as in GT2 *)
  max_memory : int option;      (* megabytes *)
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

let error_to_string = function
  | Missing_attribute a -> "missing required attribute: " ^ a
  | Not_an_integer { attribute; value } ->
    Printf.sprintf "attribute %s: not an integer: %s" attribute value
  | Not_a_number { attribute; value } ->
    Printf.sprintf "attribute %s: not a number: %s" attribute value
  | Unsupported_multirequest -> "multirequests are not supported by this job manager"
  | Unbound_variable v -> "unbound RSL variable: $(" ^ v ^ ")"
  | Bad_value { attribute; message } -> Printf.sprintf "attribute %s: %s" attribute message

let substitute_value env = function
  | Ast.Literal s -> Ok s
  | Ast.Variable v -> begin
    match List.assoc_opt v env with
    | Some s -> Ok s
    | None -> Error (Unbound_variable v)
  end
  | Ast.Binding (name, _) ->
    Error
      (Bad_value
         { attribute = "<value>";
           message =
             Printf.sprintf "binding (%s ...) is only valid under rsl_substitution" name })

let rec substitute_values env = function
  | [] -> Ok []
  | v :: rest -> begin
    match substitute_value env v with
    | Error _ as e -> e
    | Ok s -> begin
      match substitute_values env rest with
      | Error _ as e -> e
      | Ok ss -> Ok (s :: ss)
    end
  end

(* First relation with this attribute and operator [=]; RSL treats repeated
   attributes as an error in GT2, we take the first binding. *)
let find_eq clause attribute =
  List.find_opt
    (fun (r : Ast.relation) -> r.attribute = attribute && r.op = Ast.Eq)
    clause

let string_values env clause attribute =
  match find_eq clause attribute with
  | None -> Ok None
  | Some r -> begin
    match substitute_values env r.values with
    | Error _ as e -> e
    | Ok ss -> Ok (Some ss)
  end

let single_string env clause attribute =
  match string_values env clause attribute with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some [ s ]) -> Ok (Some s)
  | Ok (Some _) ->
    Error (Bad_value { attribute; message = "expected a single value" })

let int_attr env clause attribute ~default =
  match single_string env clause attribute with
  | Error _ as e -> e
  | Ok None -> Ok default
  | Ok (Some s) -> begin
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Not_an_integer { attribute; value = s })
  end

let float_attr env clause attribute =
  match single_string env clause attribute with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some s) -> begin
    match float_of_string_opt s with
    | Some f -> Ok (Some f)
    | None -> Error (Not_a_number { attribute; value = s })
  end

let opt_int_attr env clause attribute =
  match single_string env clause attribute with
  | Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some s) -> begin
    match int_of_string_opt s with
    | Some n -> Ok (Some n)
    | None -> Error (Not_an_integer { attribute; value = s })
  end

let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

(* GT2's rsl_substitution attribute: its (NAME value) binding pairs
   extend the substitution environment for the rest of the request. *)
let substitution_bindings (clause : Ast.clause) =
  List.concat_map
    (fun (r : Ast.relation) ->
      if r.attribute <> "rsl_substitution" || r.op <> Ast.Eq then []
      else
        List.filter_map
          (function
            | Ast.Binding (name, value) -> Some (name, value)
            | Ast.Literal _ | Ast.Variable _ -> None)
          r.values)
    clause

let of_clause ?(environment = []) (clause : Ast.clause) =
  let environment = substitution_bindings clause @ environment in
  let* executable =
    match single_string environment clause "executable" with
    | Ok (Some e) -> Ok e
    | Ok None -> Error (Missing_attribute "executable")
    | Error e -> Error e
  in
  let* directory = single_string environment clause "directory" in
  let* arguments =
    match string_values environment clause "arguments" with
    | Ok None -> Ok []
    | Ok (Some vs) -> Ok vs
    | Error e -> Error e
  in
  let* count = int_attr environment clause "count" ~default:1 in
  let* () =
    if count <= 0 then
      Error (Bad_value { attribute = "count"; message = "must be positive" })
    else Ok ()
  in
  let* max_wall_time = float_attr environment clause "maxwalltime" in
  let* max_memory = opt_int_attr environment clause "maxmemory" in
  let* queue = single_string environment clause "queue" in
  let* jobtag = single_string environment clause "jobtag" in
  (* [stdout] and [stderr] are validated like the rest, though no
     simulated job writes output. *)
  let* _ = single_string environment clause "stdout" in
  let* _ = single_string environment clause "stderr" in
  Ok
    { clause; executable; directory; arguments; count; max_wall_time; max_memory; queue;
      jobtag }

let of_rsl ?environment (spec : Ast.t) =
  match spec with
  | Ast.Single clause -> of_clause ?environment clause
  | Ast.Multi _ -> Error Unsupported_multirequest

let of_string ?environment input =
  match Parser.parse_result input with
  | Error m -> Error (Bad_value { attribute = "<rsl>"; message = m })
  | Ok spec -> of_rsl ?environment spec

let clause t = t.clause
let to_string t = Ast.clause_to_string t.clause
