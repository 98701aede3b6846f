(* The correctness oracle every answer is checked against: the uncompiled
   reference evaluator over the same policy sources (decision and denial
   reason), plus grid-mapfile membership for gatekeeper refusals. Pure in
   the query, so answers are memoized per distinct question. *)

open Core

type t = {
  reference : Callout.Callout.t;
  mappable : Gsi.Dn.t -> bool;  (** the gatekeeper finds a local account *)
  memo :
    ( string * Policy.Types.Action.t * string * string * string option,
      Callout.Callout.decision )
    Hashtbl.t;
}

(* [mappable] defaults to membership in the Fusion grid-mapfile; worlds
   with a dynamic account pool map everyone. *)
let create ?mappable sources =
  let mappable =
    match mappable with
    | Some f -> f
    | None -> Gsi.Gridmap.mem (Gsi.Gridmap.parse Fusion.gridmap_text)
  in
  { reference = Callout.File_pep.reference sources; mappable; memo = Hashtbl.create 256 }

(* [rsl_key] identifies the clause for memoization (its source text). *)
let decide t ~requester ~action ?rsl ?(rsl_key = "") ?owner ?jobtag () =
  let key =
    ( Gsi.Dn.to_string requester,
      action,
      rsl_key,
      (match owner with Some o -> Gsi.Dn.to_string o | None -> ""),
      jobtag )
  in
  match Hashtbl.find_opt t.memo key with
  | Some d -> d
  | None ->
    let d =
      t.reference
        { Callout.Callout.requester;
          requester_credential = None;
          job_owner = owner;
          action;
          job_id = None;
          rsl;
          jobtag }
    in
    Hashtbl.replace t.memo key d;
    d

let describe_decision = function
  | Ok () -> "permit"
  | Error e -> "deny (" ^ Callout.Callout.error_to_string e ^ ")"

(* A parsed submission template: the text submitted and the clause and
   jobtag the job manager will present to the callout. *)
type template = { text : string; clause : Rsl.Ast.clause; jobtag : string option }

let template text =
  match Rsl.Job.of_string text with
  | Ok job -> { text; clause = Rsl.Job.clause job; jobtag = job.Rsl.Job.jobtag }
  | Error e -> invalid_arg ("Oracle.template: " ^ Rsl.Job.error_to_string e)

let start_decision t ~requester (tpl : template) =
  decide t ~requester ~action:Policy.Types.Action.Start ~rsl:tpl.clause ~rsl_key:tpl.text
    ?jobtag:tpl.jobtag ()

(* [None] when the submit answer is the one the reference predicts,
   otherwise a one-line description of the disagreement. *)
let check_submit t ~requester (tpl : template) result =
  let got =
    match result with
    | Ok _ -> "accepted"
    | Error e -> Gram.Protocol.submit_error_to_string e
  in
  if not (t.mappable requester) then
    match result with
    | Error (Gram.Protocol.Gatekeeper_refused _) -> None
    | _ -> Some ("expected a gatekeeper refusal (not in the grid-mapfile), got " ^ got)
  else
    match (start_decision t ~requester tpl, result) with
    | Ok (), Ok _ -> None
    | Error e, Error (Gram.Protocol.Authorization_failed f)
      when f = Gram.Protocol.authz_failure_of_callout e ->
      None
    | expected, _ ->
      Some (Printf.sprintf "expected %s, got %s" (describe_decision expected) got)

let management_decision t ~requester ~owner ~jobtag action =
  decide t ~requester ~action:(Gram.Protocol.to_policy_action action) ~owner ?jobtag ()

let check_manage t ~requester ~owner ~jobtag action result =
  let got =
    match result with
    | Ok _ -> "ok"
    | Error e -> Gram.Protocol.management_error_to_string e
  in
  match (management_decision t ~requester ~owner ~jobtag action, result) with
  | Ok (), Ok (Gram.Protocol.Job_status _) when action = Gram.Protocol.Status -> None
  | Ok (), Ok Gram.Protocol.Ack when action <> Gram.Protocol.Status -> None
  | Error e, Error (Gram.Protocol.Not_authorized f)
    when f = Gram.Protocol.authz_failure_of_callout e ->
    None
  | expected, _ ->
    Some (Printf.sprintf "expected %s, got %s" (describe_decision expected) got)

(* The first failed or disagreeing operation of a run, with where it
   happened; [suite] prints it and exits 1. *)
type failure = { workload : string; phase : string; op : int; reason : string }

let pp_failure ppf f =
  Format.fprintf ppf "%s: %s op %d: %s" f.workload f.phase f.op f.reason
