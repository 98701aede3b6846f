(** Structured audit log for security-relevant events. *)

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
  | Recovery  (** crash/restart lifecycle of a component *)

val kind_to_string : kind -> string

val is_failure : outcome -> bool
(** The one failure predicate all failure accounting (here and in
    {!Reports}) is derived from. *)

type record = {
  at : Grid_sim.Clock.time;
  kind : kind;
  subject : Grid_gsi.Dn.t option;
  job_id : string option;
  outcome : outcome;
  detail : string;
  policy_epoch : int option;
      (** policy epoch the recorded action ran under, when known *)
  corr_id : string option;
      (** correlation id tying this entry to the wide-event chain *)
}

type t

val create : unit -> t

val log :
  t ->
  at:Grid_sim.Clock.time ->
  kind:kind ->
  ?subject:Grid_gsi.Dn.t ->
  ?job_id:string ->
  ?policy_epoch:int ->
  ?corr_id:string ->
  outcome:outcome ->
  string ->
  unit

val records : t -> record list
(** Chronological order. *)

val count : t -> int
(** O(1): a running total, not a list walk. *)

val failure_count : t -> int
(** O(1). *)

val by_kind : t -> kind -> record list
val by_subject : t -> Grid_gsi.Dn.t -> record list
val by_job : t -> string -> record list

val failures : t -> record list

val pp_record : record Fmt.t
val pp : t Fmt.t
