(** Online safety-invariant monitor over the wide-event stream.

    Consumes {!Event} streams and continuously asserts the paper's
    enforcement guarantees: default-deny (via an injected policy
    oracle), epoch freshness, credential liveness past the propagation
    window, crash-recovery equivalence, and fail-closed integrity.

    Events are buffered per simulation tick and applied in a canonical
    content-based order, so verdicts never depend on the arrival order
    of events within one tick; a same-tick epoch bump excuses same-tick
    decisions. Each violation carries the full correlated event chain of
    the offending request. *)

type violation_class =
  | Default_deny
      (** a Permit with no matching policy statement at the decision's
          epoch *)
  | Stale_epoch
      (** a decision or cache answer served under an old policy epoch
          strictly after a bump propagated at the same resource *)
  | Expired_credential
      (** an expired or revoked credential authorized an action past
          the propagation window *)
  | Recovery_divergence
      (** a durably-admitted live job did not come back from recovery
          although the store reported no loss *)
  | Fail_open_upgrade
      (** fail-closed degradation produced a Permit *)
  | Token_revocation
      (** a revoked STS token was accepted by a validating PEP past the
          revocation mode's propagation window (["token.validated"]
          events checked against ["token.revoked"] state) *)

val class_to_string : violation_class -> string
val class_of_string : string -> violation_class option
val all_classes : violation_class list

type violation = {
  vclass : violation_class;
  at : Grid_sim.Clock.time;
  corr : string option;
  message : string;
  chain : Event.t list;  (** correlated event chain, chronological *)
}

type oracle = Event.t -> bool option
(** Re-derives the policy answer for an ["authz.decision"] event:
    [Some true] = policy permits, [Some false] = policy denies (a
    permitted event is then a default-deny violation), [None] = not my
    backend / unknown epoch. *)

val oracle_for_backend : string -> oracle -> oracle
(** Scope an oracle to decision events stamped with the given [backend]
    label (the [?backend] of [Grid_callout.Callout.instrument], the one
    wrapper that emits them); all other events answer [None]. *)

val any_oracle : oracle list -> oracle
(** First claiming oracle answers — compose one {!oracle_for_backend}
    per PEP into the composite a mixed-backend campaign injects. *)

type t

val create :
  ?oracle:oracle ->
  ?propagation_window:float ->
  Event.bus ->
  t
(** Subscribe a fresh monitor to the bus. [oracle] re-derives the policy
    answer for an ["authz.decision"] event ([Some false] means the
    policy denies — a permitted event is then a default-deny violation;
    [None] means "not my backend / unknown epoch"). The campaign driver
    injects it, keeping the monitor free of policy dependencies.
    [propagation_window] (default 300 s) is the grace period granted to
    revocation propagation. At most 500,000 events are kept for the
    per-request chains that violation reports print. *)

val flush : t -> unit
(** Process the still-buffered final tick. Call once the run is over
    (no more events will arrive) before reading {!violations}. *)

val violations : t -> violation list
(** Chronological. Does not {!flush}. *)

val violation_count : t -> int
val events_seen : t -> int
val current_epoch : t -> int option
(** The newest policy epoch observed across every resource scope. *)

val classes : t -> violation_class list
(** Distinct violation classes seen, sorted. *)

val pp_violation : violation Fmt.t
val pp : t Fmt.t
