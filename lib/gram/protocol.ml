(* The GRAM protocol: requests, replies and errors.

   Extended relative to GT2 exactly where Section 5.2 says: the [jobtag]
   RSL parameter travels with job requests; management requests may come
   from identities other than the job initiator; and errors distinguish
   authorization denial from authorization-system failure. *)

type signal =
  | Suspend
  | Resume
  | Set_priority of int

let signal_to_string = function
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Set_priority p -> Printf.sprintf "priority=%d" p

(* Management actions a client can direct at a running job. [Status] is
   the paper's "information" action; the batch-control verbs are carried
   as signals, as in GT2. *)
type management_action =
  | Cancel
  | Status
  | Signal of signal

let management_action_to_string = function
  | Cancel -> "cancel"
  | Status -> "status"
  | Signal s -> "signal(" ^ signal_to_string s ^ ")"

(* Map protocol actions onto the policy language's action attribute. *)
let to_policy_action = function
  | Cancel -> Grid_policy.Types.Action.Cancel
  | Status -> Grid_policy.Types.Action.Information
  | Signal _ -> Grid_policy.Types.Action.Signal

(* Authorization failures, as first-class protocol errors (the GT2
   protocol could only say "authorization failed"). *)
type authz_failure =
  | Authz_denied of string
  | Authz_system_failure of string
  | Authz_misconfigured of string

let authz_failure_to_string = function
  | Authz_denied m -> "authorization denied: " ^ m
  | Authz_system_failure m -> "authorization system failure: " ^ m
  | Authz_misconfigured m -> "authorization misconfigured: " ^ m

let authz_failure_of_callout : Grid_callout.Callout.error -> authz_failure = function
  | Grid_callout.Callout.Denied m -> Authz_denied m
  | Grid_callout.Callout.System_error m -> Authz_system_failure m
  | Grid_callout.Callout.Bad_configuration m -> Authz_misconfigured m

type submit_error =
  | Authentication_failed of string
  | Gatekeeper_refused of string      (* GT2 gridmap-level refusal *)
  | Authorization_failed of authz_failure (* JM PEP refusal (extended mode) *)
  | Account_mapping_failed of string
  | Bad_rsl of string
  | Sandbox_violation of string list
  | Allocation_refused of string      (* coarse-grained VO allocation exhausted *)
  | Resource_unavailable of string    (* LRM refused the job *)
  | Request_timeout of string         (* no reply within the request deadline *)

let submit_error_to_string = function
  | Authentication_failed m -> "authentication failed: " ^ m
  | Gatekeeper_refused m -> "gatekeeper refused: " ^ m
  | Authorization_failed f -> authz_failure_to_string f
  | Account_mapping_failed m -> "account mapping failed: " ^ m
  | Bad_rsl m -> "bad RSL: " ^ m
  | Sandbox_violation vs -> "sandbox violation: " ^ String.concat "; " vs
  | Allocation_refused m -> "allocation refused: " ^ m
  | Resource_unavailable m -> "resource unavailable: " ^ m
  | Request_timeout m -> "request timeout: " ^ m

type job_state =
  | Pending
  | Active
  | Suspended
  | Done
  | Failed of string
  | Canceled

let job_state_to_string = function
  | Pending -> "PENDING"
  | Active -> "ACTIVE"
  | Suspended -> "SUSPENDED"
  | Done -> "DONE"
  | Failed m -> "FAILED(" ^ m ^ ")"
  | Canceled -> "CANCELED"

let job_state_of_lrm : Grid_lrm.Lrm.state -> job_state = function
  | Grid_lrm.Lrm.Pending -> Pending
  | Grid_lrm.Lrm.Running -> Active
  | Grid_lrm.Lrm.Suspended -> Suspended
  | Grid_lrm.Lrm.Completed -> Done
  | Grid_lrm.Lrm.Cancelled -> Canceled
  | Grid_lrm.Lrm.Killed why -> Failed why

type job_status = {
  owner : Grid_gsi.Dn.t;
  state : job_state;
  jobtag : string option;
}

type submit_reply = {
  job_contact : string;  (* handle for subsequent management requests *)
  submitted_as : string; (* the local account chosen by the gatekeeper *)
}

type management_error =
  | Unknown_job of string
  | Management_authentication_failed of string
  | Not_authorized of authz_failure
  | Invalid_request of string   (* e.g. resume a job that is not suspended *)
  | Request_timed_out of string (* no reply within the request deadline *)

let management_error_to_string = function
  | Unknown_job c -> "unknown job contact: " ^ c
  | Management_authentication_failed m -> "authentication failed: " ^ m
  | Not_authorized f -> authz_failure_to_string f
  | Invalid_request m -> "invalid request: " ^ m
  | Request_timed_out m -> "request timeout: " ^ m

type management_reply =
  | Ack
  | Job_status of job_status
