(** Retry policies with deadlines, exponential backoff with seeded jitter,
    and a small circuit breaker.

    All decisions are pure functions of an explicit clock ([~now]) and a
    caller-supplied {!Rng.t}, so retry sequences are fully deterministic
    and reproducible under the simulation engine. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  initial_backoff : float;  (** backoff after the first failure, seconds *)
  backoff_multiplier : float;  (** growth factor per failed attempt *)
  max_backoff : float;  (** cap on the un-jittered backoff, seconds *)
  jitter : float;  (** relative jitter in [0, 1]; 0.2 = +/-20% *)
}

val default : policy
(** 4 attempts, 50ms initial backoff, x2 growth capped at 1s, 20% jitter. *)

val policy :
  ?max_attempts:int ->
  ?initial_backoff:float ->
  ?backoff_multiplier:float ->
  ?max_backoff:float ->
  ?jitter:float ->
  unit ->
  policy
(** Build a policy, validating ranges. Raises [Invalid_argument] on
    nonsensical values. *)

val backoff : policy -> rng:Rng.t -> attempt:int -> float
(** [backoff p ~rng ~attempt] is the jittered delay to wait after the
    [attempt]-th failure (1-based). Raises [Invalid_argument] if
    [attempt < 1]. *)

type verdict =
  | Retry_after of float  (** wait this many seconds, then try again *)
  | Give_up of string  (** stop retrying; human-readable reason *)

val next :
  policy ->
  rng:Rng.t ->
  now:float ->
  deadline:float option ->
  attempt:int ->
  verdict
(** [next p ~rng ~now ~deadline ~attempt] decides what to do after the
    [attempt]-th failure at time [now]. Gives up when attempts are
    exhausted or when the backed-off retry would start at or past the
    deadline. *)

(** A consecutive-failure circuit breaker with a time-based half-open
    probe. The [Open -> Half_open] transition happens lazily when any
    operation observes that the cooldown has elapsed. *)
module Breaker : sig
  type state = Closed | Open | Half_open

  val state_to_string : state -> string

  type t

  val create :
    ?failure_threshold:int ->
    ?cooldown:float ->
    unit ->
    t
  (** Defaults: open after 3 consecutive failures, 30s cooldown before a
      half-open probe is allowed. *)

  val state : t -> now:float -> state

  val allow : t -> now:float -> bool
  (** Whether a request may proceed at [now]. [false] only while Open;
      a Half_open breaker admits the probe request. *)

  val success : t -> now:float -> unit
  (** Record a successful call: resets the failure count, and closes the
      breaker if it was half-open. *)

  val failure : t -> now:float -> unit
  (** Record a failed call: trips the breaker at the threshold, and sends
      a failed half-open probe straight back to Open with a fresh
      cooldown. *)
end
