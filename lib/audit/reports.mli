(** Accounting reports aggregated from the audit trail. *)

type subject_summary = {
  subject : Grid_gsi.Dn.t;
  authentications : int;
  authn_failures : int;
  authorizations : int;
  authz_denials : int;
  submissions : int;
  submission_failures : int;
  management_actions : int;
}

val by_subject : Audit.t -> subject_summary list
(** One summary per subject, sorted by DN. *)

val denial_reasons : Audit.t -> (string * int) list
(** Failure messages with frequencies, most frequent first. *)

val kind_counts : Audit.t -> (Audit.kind * int) list

val pp : Audit.t Fmt.t
