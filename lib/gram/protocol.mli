(** The GRAM protocol: management actions, replies, and the extended
    error vocabulary (authorization denial vs authorization-system
    failure). *)

type signal =
  | Suspend
  | Resume
  | Set_priority of int

type management_action =
  | Cancel
  | Status
  | Signal of signal

val management_action_to_string : management_action -> string

val to_policy_action : management_action -> Grid_policy.Types.Action.t

type authz_failure =
  | Authz_denied of string
  | Authz_system_failure of string
  | Authz_misconfigured of string

val authz_failure_of_callout : Grid_callout.Callout.error -> authz_failure

type submit_error =
  | Authentication_failed of string
  | Gatekeeper_refused of string
  | Authorization_failed of authz_failure
  | Account_mapping_failed of string
  | Bad_rsl of string
  | Sandbox_violation of string list
  | Allocation_refused of string
  | Resource_unavailable of string
  | Request_timeout of string
      (** no reply within the request deadline (dropped hop or partition) *)

val submit_error_to_string : submit_error -> string

type job_state =
  | Pending
  | Active
  | Suspended
  | Done
  | Failed of string
  | Canceled

val job_state_to_string : job_state -> string
val job_state_of_lrm : Grid_lrm.Lrm.state -> job_state

type job_status = {
  owner : Grid_gsi.Dn.t;
  state : job_state;
  jobtag : string option;
}

type submit_reply = {
  job_contact : string;
  submitted_as : string;
}

type management_error =
  | Unknown_job of string
  | Management_authentication_failed of string
  | Not_authorized of authz_failure
  | Invalid_request of string
  | Request_timed_out of string
      (** no reply within the request deadline (dropped hop or partition) *)

val management_error_to_string : management_error -> string

type management_reply =
  | Ack
  | Job_status of job_status
