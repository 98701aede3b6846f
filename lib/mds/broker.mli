(** Resource broker: discovery-driven site selection with optional
    VO-policy pre-check, capacity- and queue-aware ranking, seeded
    tie-breaking, per-site circuit breakers, and fall-through retries. *)

type t

type failure = {
  site : string;
  error : string;
}

type error =
  | No_candidates
  | All_failed of failure list

val error_to_string : error -> string

val create :
  ?precheck:(Grid_policy.Types.request -> bool) ->
  ?seed:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:float ->
  ?obs:Grid_obs.Obs.t ->
  directory:Directory.t ->
  Grid_gram.Resource.t list ->
  t
(** [precheck] is advisory (the resource PEPs stay authoritative): it
    saves doomed submissions when the VO policy already denies. [seed]
    (default 0) drives the tie-break: equal-capacity ties rotate from
    one selection to the next (a per-plan salt), but the whole sequence
    is reproducible per seed. Each site gets a circuit breaker
    ([breaker_threshold] consecutive timeouts open it, default 3;
    [breaker_cooldown] seconds before a half-open probe, default 30):
    while open the site is skipped by {!plan} and {!submit}. [obs]
    counts selections and skips per resource. *)

val plan : t -> job:Grid_rsl.Job.t -> Grid_gram.Resource.t list
(** Candidate resources for a job, ranked: most free cpus first, then
    fewest pending jobs, then the seeded tie-break. Only fresh directory
    entries (stale and deregistered sites never appear); breaker-open
    sites are skipped. *)

val select : t -> job:Grid_rsl.Job.t -> Grid_gram.Resource.t list
(** Alias of {!plan} — the ranked selection without submitting. *)

val breaker_state : t -> string -> Grid_util.Retry.Breaker.state option
(** The named site's breaker state, [None] for unknown sites. *)

val observe : t -> site:string -> [ `Timeout | `Answered ] -> unit
(** Feed the named site's breaker from an external submission lane:
    [`Timeout] counts a failure, [`Answered] (any protocol or policy
    answer, including denials) a success. Unknown sites are ignored. *)

val submit :
  t ->
  identity:Grid_gsi.Identity.t ->
  rsl:string ->
  (string * Grid_gram.Protocol.submit_reply, error) result
(** Try candidates in ranked order; returns the winning site name and
    reply. Timeouts feed the site's breaker; any policy answer (even a
    denial) resets it — breakers track reachability, not authorization. *)
