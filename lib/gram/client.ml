(* The GRAM client.

   Submits jobs and issues management requests on behalf of a grid
   identity. Section 5.2's client-side extension is visible here:
   management requests carry the requester's own identity, which may
   differ from the job originator's — the client "recognizes the identity
   of the job originator" via the job status it can query.

   Management requests (status/cancel/signal) are idempotent at the
   resource, so the client may retry them under a deadline with
   exponential backoff when a request times out. Submission is NOT
   retried automatically: a lost reply does not imply a lost job, and
   resubmitting could start it twice.

   The [*_sync] helpers drive the simulation engine until the reply
   arrives, giving tests and examples a blocking API over the
   asynchronous wire protocol. *)

type t = {
  identity : Grid_gsi.Identity.t;
  resource : Resource.t;
  rng : Grid_util.Rng.t;  (* backoff jitter stream *)
}

let create ~identity ~resource () =
  { identity; resource; rng = Grid_util.Rng.create ~seed:11 }

let identity t = t.identity
let credential_for t =
  let challenge = Resource.new_challenge t.resource in
  Grid_gsi.Credential.of_identity t.identity ~challenge

let submit t ~rsl ~reply =
  Resource.submit t.resource ~credential:(credential_for t) ~rsl ~reply

let manage ?timeout t ~contact action ~reply =
  Resource.manage ?timeout t.resource
    ~requester:(Grid_gsi.Identity.effective_subject t.identity)
    ~credential:(credential_for t) ~contact action ~reply

(* --- Retrying management ---------------------------------------------- *)

let action_label = function
  | Protocol.Cancel -> "cancel"
  | Protocol.Status -> "status"
  | Protocol.Signal _ -> "signal"

(* Each attempt gets at most this long before it counts as timed out. *)
let attempt_timeout = 0.25

(* Retry [action] until it yields a non-timeout result, the default
   policy's attempts run out, or the (relative) [deadline] would be
   overshot.
   Only [Request_timed_out] is retried — every other error is a definite
   answer from the resource. Each attempt mints a fresh credential, so a
   duplicate-delivered earlier attempt can never be replayed. *)
let manage_with_retry ?deadline t ~contact action ~reply =
  let engine = Resource.engine t.resource in
  let obs = Resource.obs t.resource in
  let label = action_label action in
  let started = Grid_sim.Engine.now engine in
  let absolute_deadline = Option.map (fun d -> started +. d) deadline in
  let give_up ~attempts reason =
    if Grid_obs.Obs.enabled obs then
      Grid_obs.Obs.incr obs ~labels:[ ("action", label) ] "client_retry_exhausted_total";
    reply
      (Error
         (Protocol.Request_timed_out
            (Printf.sprintf "gave up after %d attempt%s: %s" attempts
               (if attempts = 1 then "" else "s")
               reason)))
  in
  let rec attempt n =
    let now = Grid_sim.Engine.now engine in
    (* Bound each attempt by both the per-attempt timeout and what is
       left of the overall deadline. *)
    let budget =
      match absolute_deadline with
      | None -> attempt_timeout
      | Some d -> Float.min attempt_timeout (d -. now)
    in
    if budget <= 0.0 then give_up ~attempts:(n - 1) "deadline expired"
    else
      manage ~timeout:budget t ~contact action ~reply:(function
        | Error (Protocol.Request_timed_out msg) -> begin
          match
            Grid_util.Retry.next Grid_util.Retry.default ~rng:t.rng ~now:(Grid_sim.Engine.now engine)
              ~deadline:absolute_deadline ~attempt:n
          with
          | Grid_util.Retry.Give_up reason ->
            give_up ~attempts:n (reason ^ "; last error: " ^ msg)
          | Grid_util.Retry.Retry_after backoff ->
            if Grid_obs.Obs.enabled obs then
              Grid_obs.Obs.incr obs ~labels:[ ("action", label) ] "client_retries_total";
            Grid_sim.Engine.schedule_after engine backoff (fun () -> attempt (n + 1))
        end
        | result -> reply result)
  in
  attempt 1

(* --- Blocking wrappers ------------------------------------------------ *)

let await engine cell =
  let guard = ref 0 in
  while !cell = None && !guard < 1_000_000 do
    if not (Grid_sim.Engine.step engine) then guard := 1_000_000 else incr guard
  done;
  match !cell with
  | Some v -> v
  | None -> failwith "Client: no reply (simulation drained)"

let submit_sync t ~rsl =
  let cell = ref None in
  submit t ~rsl ~reply:(fun r -> cell := Some r);
  await (Resource.engine t.resource) cell

let manage_sync t ~contact action =
  let cell = ref None in
  manage t ~contact action ~reply:(fun r -> cell := Some r);
  await (Resource.engine t.resource) cell

let manage_with_retry_sync ?deadline t ~contact action =
  let cell = ref None in
  manage_with_retry ?deadline t ~contact action ~reply:(fun r -> cell := Some r);
  await (Resource.engine t.resource) cell

let watch t ~contact ~on_state_change =
  Resource.register_callback t.resource ~contact ~on_state_change

let status_sync t ~contact =
  match manage_sync t ~contact Protocol.Status with
  | Ok (Protocol.Job_status st) -> Ok st
  | Ok Protocol.Ack -> Error (Protocol.Invalid_request "status returned no body")
  | Error _ as e -> e
