(** The GRAM client: submission and (possibly third-party) job
    management on behalf of a grid identity.

    Management requests (status/cancel/signal) are idempotent at the
    resource and may be retried under a deadline via
    {!manage_with_retry_sync}; submission is never retried automatically. *)

type t

val create : identity:Grid_gsi.Identity.t -> resource:Resource.t -> unit -> t
(** {!manage_with_retry_sync} retries under {!Grid_util.Retry.default},
    bounds each attempt by 0.25 s and draws backoff jitter from a stream
    seeded with 11. *)

val identity : t -> Grid_gsi.Identity.t

val credential_for : t -> Grid_gsi.Credential.t
(** Fresh credential bound to a challenge newly minted by the resource. *)

val submit :
  t ->
  rsl:string ->
  reply:((Protocol.submit_reply, Protocol.submit_error) result -> unit) ->
  unit

val manage :
  ?timeout:float ->
  t ->
  contact:string ->
  Protocol.management_action ->
  reply:((Protocol.management_reply, Protocol.management_error) result -> unit) ->
  unit

val submit_sync : t -> rsl:string -> (Protocol.submit_reply, Protocol.submit_error) result
(** Drive the simulation until the reply arrives. *)

val manage_sync :
  t ->
  contact:string ->
  Protocol.management_action ->
  (Protocol.management_reply, Protocol.management_error) result

val manage_with_retry_sync :
  ?deadline:float ->
  t ->
  contact:string ->
  Protocol.management_action ->
  (Protocol.management_reply, Protocol.management_error) result
(** Retry the (idempotent) management request on [Request_timed_out]
    with exponential backoff, until a definite answer arrives, the
    default policy's attempts run out, or the [deadline] (seconds from now)
    would be overshot, driving the simulation until then. A deadline of
    0 fails immediately without sending anything. Retries and exhaustion
    are counted under
    [client_retries_total]/[client_retry_exhausted_total]. *)

val watch :
  t ->
  contact:string ->
  on_state_change:(Protocol.job_state -> unit) ->
  (unit, Protocol.management_error) result
(** Register a GT2-style callback contact: subsequent state transitions
    of the job are delivered asynchronously. *)

val status_sync : t -> contact:string -> (Protocol.job_status, Protocol.management_error) result
