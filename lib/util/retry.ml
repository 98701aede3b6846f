(* Retry policies and a circuit breaker.

   Pure decision logic over an explicit clock: callers supply [now], draw
   jitter from their own seeded [Rng.t], and schedule the returned backoff
   themselves (on the simulation engine, in our case). Keeping time and
   randomness external makes every retry sequence reproducible — the same
   property the latency model already has. *)

type policy = {
  max_attempts : int;
  initial_backoff : float;
  backoff_multiplier : float;
  max_backoff : float;
  jitter : float;
}

let default =
  { max_attempts = 4;
    initial_backoff = 0.05;
    backoff_multiplier = 2.0;
    max_backoff = 1.0;
    jitter = 0.2 }

let policy ?(max_attempts = default.max_attempts)
    ?(initial_backoff = default.initial_backoff)
    ?(backoff_multiplier = default.backoff_multiplier)
    ?(max_backoff = default.max_backoff) ?(jitter = default.jitter) () =
  if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts must be >= 1";
  if initial_backoff < 0.0 || max_backoff < 0.0 then
    invalid_arg "Retry.policy: backoffs must be non-negative";
  if jitter < 0.0 || jitter > 1.0 then invalid_arg "Retry.policy: jitter must be in [0, 1]";
  { max_attempts; initial_backoff; backoff_multiplier; max_backoff; jitter }

(* Backoff before attempt [attempt + 1], i.e. after [attempt] failures
   (1-based). Exponential growth capped at [max_backoff], then spread
   uniformly over [base*(1-jitter), base*(1+jitter)) from the caller's
   stream. *)
let backoff p ~rng ~attempt =
  if attempt < 1 then invalid_arg "Retry.backoff: attempt is 1-based";
  let base =
    Float.min p.max_backoff
      (p.initial_backoff *. (p.backoff_multiplier ** float_of_int (attempt - 1)))
  in
  let spread = base *. p.jitter in
  if spread <= 0.0 then base else base -. spread +. Rng.float rng (2.0 *. spread)

type verdict =
  | Retry_after of float
  | Give_up of string

(* After the [attempt]-th failure at time [now]: retry, or give up because
   attempts are exhausted or the backoff would overshoot the deadline. *)
let next p ~rng ~now ~deadline ~attempt =
  if attempt >= p.max_attempts then
    Give_up (Printf.sprintf "attempts exhausted (%d)" attempt)
  else begin
    let b = backoff p ~rng ~attempt in
    match deadline with
    | Some d when now +. b >= d ->
      Give_up (Printf.sprintf "deadline reached after %d attempts" attempt)
    | Some _ | None -> Retry_after b
  end

module Breaker = struct
  type state =
    | Closed
    | Open
    | Half_open

  let state_to_string = function
    | Closed -> "closed"
    | Open -> "open"
    | Half_open -> "half_open"

  type t = {
    failure_threshold : int;
    cooldown : float;
    mutable current : state;
    mutable consecutive_failures : int;
    mutable opened_at : float;
  }

  let create ?(failure_threshold = 3) ?(cooldown = 30.0) () =
    if failure_threshold < 1 then
      invalid_arg "Breaker.create: failure_threshold must be >= 1";
    if cooldown < 0.0 then invalid_arg "Breaker.create: cooldown must be non-negative";
    { failure_threshold; cooldown; current = Closed;
      consecutive_failures = 0; opened_at = neg_infinity }

  (* The Open -> Half_open transition is time-driven; compute it lazily on
     every query so no timer needs scheduling. *)
  let refresh t ~now =
    if t.current = Open && now >= t.opened_at +. t.cooldown then
      t.current <- Half_open

  let state t ~now =
    refresh t ~now;
    t.current

  let allow t ~now =
    refresh t ~now;
    t.current <> Open

  let success t ~now =
    refresh t ~now;
    t.consecutive_failures <- 0;
    if t.current = Half_open then t.current <- Closed

  let failure t ~now =
    refresh t ~now;
    match t.current with
    | Half_open ->
      (* The probe failed: back to Open for a fresh cooldown. *)
      t.opened_at <- now;
      t.current <- Open
    | Closed ->
      t.consecutive_failures <- t.consecutive_failures + 1;
      if t.consecutive_failures >= t.failure_threshold then begin
        t.opened_at <- now;
        t.current <- Open
      end
    | Open -> ()
end
