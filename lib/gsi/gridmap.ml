(* The grid-mapfile.

   GT2's access-control list and account-mapping policy in one file: each
   line maps a quoted grid DN to a local account name. Presence in the file
   is what the Gatekeeper's coarse-grained authorization checks; the mapped
   account is the local credential the job runs under.

     "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" keahey
     "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu" bliu,fusion   # multiple accounts
*)

type entry = { dn : Dn.t; accounts : string list }
type t = { entries : entry list }

exception Parse_error of { line : int; message : string }

let parse_line lineno line =
  let fail message = raise (Parse_error { line = lineno; message }) in
  if String.length line = 0 || line.[0] <> '"' then
    fail "entry must start with a quoted distinguished name";
  match String.index_from_opt line 1 '"' with
  | None -> fail "unterminated quoted distinguished name"
  | Some close ->
    let dn_string = String.sub line 1 (close - 1) in
    let dn = try Dn.parse dn_string with Dn.Parse_error m -> fail m in
    let rest = Grid_util.Strings.strip (String.sub line (close + 1) (String.length line - close - 1)) in
    if rest = "" then fail "missing local account name";
    let accounts =
      String.split_on_char ',' rest |> List.map Grid_util.Strings.strip
      |> List.filter (fun a -> a <> "")
    in
    if accounts = [] then fail "missing local account name";
    { dn; accounts }

let parse text =
  { entries = List.map (fun (n, line) -> parse_line n line) (Grid_util.Strings.config_lines text) }

let empty = { entries = [] }

let add t ~dn ~account = { entries = t.entries @ [ { dn; accounts = [ account ] } ] }

let lookup t dn =
  match List.find_opt (fun e -> Dn.equal e.dn dn) t.entries with
  | Some { accounts = a :: _; _ } -> Some a
  | Some { accounts = []; _ } | None -> None

let mem t dn = lookup t dn <> None

let entries t = t.entries

let to_text t =
  Grid_util.Strings.concat_map "\n"
    (fun e -> Printf.sprintf "%S %s" (Dn.to_string e.dn) (String.concat "," e.accounts))
    t.entries
