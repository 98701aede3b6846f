(* Structured audit log.

   Every security-relevant event in the Gatekeeper and Job Manager is
   recorded: authentication outcomes, authorization decisions (with the
   deciding source), account mappings, job lifecycle transitions and
   management requests. The paper's Section 4.3 notes shared accounts
   "introduce many security, audit, accounting and other problems" — the
   audit trail is what lets per-identity accountability survive dynamic
   account reuse. *)

type outcome =
  | Success
  | Failure of string

type kind =
  | Authentication
  | Authorization
  | Account_mapping
  | Job_submission
  | Job_management
  | Job_state
  | Recovery

let kind_to_string = function
  | Authentication -> "authn"
  | Authorization -> "authz"
  | Account_mapping -> "mapping"
  | Job_submission -> "submit"
  | Job_management -> "manage"
  | Job_state -> "state"
  | Recovery -> "recovery"

(* The single failure predicate: every failure count in this module and
   in [Reports] derives from it, so "what counts as a failure" cannot
   drift between the log's running totals and the report aggregates. *)
let is_failure = function Failure _ -> true | Success -> false

type record = {
  at : Grid_sim.Clock.time;
  kind : kind;
  subject : Grid_gsi.Dn.t option;
  job_id : string option;
  outcome : outcome;
  detail : string;
  policy_epoch : int option;
      (* the policy epoch the recorded action ran under *)
  corr_id : string option;
      (* correlation id linking this entry to the wide-event chain *)
}

type t = {
  mutable records : record list;  (* reverse order *)
  (* Running totals: [count] and failure accounting are consulted on hot
     paths (per-job workload stats), so they must not walk the log. *)
  mutable total : int;
  mutable failure_total : int;
}

let create () = { records = []; total = 0; failure_total = 0 }

let log t ~at ~kind ?subject ?job_id ?policy_epoch ?corr_id ~outcome detail =
  t.records <-
    { at; kind; subject; job_id; outcome; detail; policy_epoch; corr_id } :: t.records;
  t.total <- t.total + 1;
  if is_failure outcome then t.failure_total <- t.failure_total + 1

let records t = List.rev t.records

let count t = t.total

let failure_count t = t.failure_total

let by_kind t kind = List.filter (fun r -> r.kind = kind) (records t)

let by_subject t dn =
  List.filter
    (fun r -> match r.subject with Some s -> Grid_gsi.Dn.equal s dn | None -> false)
    (records t)

let by_job t job_id =
  List.filter (fun r -> r.job_id = Some job_id) (records t)

let failures t = List.filter (fun r -> is_failure r.outcome) (records t)

let pp_record ppf r =
  let outcome = match r.outcome with Success -> "ok" | Failure m -> "FAIL(" ^ m ^ ")" in
  Fmt.pf ppf "%8.3fs %-8s %-32s %-12s %-6s %s%s%s" r.at (kind_to_string r.kind)
    (match r.subject with Some s -> Grid_gsi.Dn.to_string s | None -> "-")
    (Option.value r.job_id ~default:"-")
    outcome r.detail
    (match r.policy_epoch with
    | Some e -> Printf.sprintf " [epoch %d]" e
    | None -> "")
    (match r.corr_id with Some c -> " [" ^ c ^ "]" | None -> "")

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_record) (records t)
