(** Multi-day chaos soak campaigns watched by the safety monitor.

    A campaign runs the fusion testbed through simulated days of
    operational churn — credential renewal and revocation, VO/policy
    reloads, job-manager crashes during submission bursts, network and
    disk faults — with every layer emitting correlated wide events that
    {!Grid_obs.Monitor} checks online against the paper's enforcement
    invariants. The driver supplies the monitor's policy oracle from its
    own (epoch, sources) history, so decisions are judged against the
    policy that was live at their epoch even across reloads.

    [inject] turns a campaign into a monitor self-test: each
    {!Grid_obs.Monitor.violation_class} can be provoked on demand, and a
    healthy monitor must report exactly that class with the offending
    correlation chain. *)

type fault_level =
  | No_faults
  | Light  (** 1% drops, light duplication and delay *)
  | Heavy  (** 5% drops, heavy delay, torn writes on the store's disk *)

type pep_backend =
  | Flat_file_pep  (** the compiled flat-file policy index *)
  | Rebac_pep  (** the relationship-based (Zanzibar-style) PEP *)

type config = {
  days : float;  (** campaign length in simulated days *)
  jobs_per_day : int;  (** baseline Poisson arrival volume *)
  seed : int;  (** drives arrivals, faults and all choices *)
  faults : fault_level;
  monitor : bool;  (** [false] runs monitor-less (for overhead baselines) *)
  inject : Grid_obs.Monitor.violation_class option;
  propagation_window : float;  (** revocation grace period, seconds *)
  pep : pep_backend;
      (** which PEP answers callouts; the monitor's oracle re-derives
          answers through the matching engine either way *)
  batch : int;
      (** [1] (the default) sends each management follow-up over the
          wire individually; [N > 1] coalesces follow-ups and authorizes
          them [N] at a time through
          {!Grid_gram.Resource.manage_many_direct}. *)
  resources : int;
      (** [1] (the default) keeps the original single-site campaign.
          [N > 1] federates [N] full members ("soak-site",
          "soak-site-1", ...) behind a shared MDS directory and broker:
          capacity-aware placement with seeded tie-breaks, per-member
          PEP/cache/store/disk, staggered policy reloads at each churn
          point (mixed epochs in flight, judged exactly by the oracle
          history), and crash bursts rotating across members. *)
  tokens : Grid_sts.Validator.mode option;
      (** [None] (the default) keeps the original proxy-path campaign.
          [Some mode] runs it tokenized: one {!Grid_sts.Service} mints
          audience-bound capability tokens through its default
          permissive relation, every user's proxy carries one as a
          certificate extension, each member gates its callout behind a
          token-validating PEP with a per-member validator fed per
          [mode], renewal becomes refresh-before-expiry against the STS
          escrow at 80% of the token TTL, and the mid-campaign
          revocation lands at the STS ({!Grid_sts.Service.revoke_subject})
          instead of the CA trust store. The monitor's propagation
          window widens to the mode's enforcement bound when that is
          larger, so short-TTL enforcement-by-expiry is not
          misclassified. *)
}

val default_config : config
(** 3 days, 400 jobs/day, seed 42, light faults, monitor on, no
    injection, flat-file PEP, batch 1, one resource, no tokens. *)

type report = {
  submitted : int;
  accepted : int;
  denied : int;  (** authorization / authentication refusals *)
  failed : int;  (** other errors: RSL, mapping, system *)
  timed_out : int;
  management : int;
  management_denied : int;
  renewals : int;
  revocations : int;
  reloads : int;
  crashes : int;
  jobs_restored : int;
  events_checked : int;
  violations : Grid_obs.Monitor.violation list;
}

val run : config -> report
(** Build the world, run the campaign to quiescence, flush the monitor's
    final tick and report. Deterministic in [config.seed]. *)

val violation_classes : report -> Grid_obs.Monitor.violation_class list
(** Distinct violation classes present in the report, sorted. *)

val pp_report : report Fmt.t
