(* The GRAM authorization callout API (Section 5.2).

   The paper inserts a policy evaluation point into the Job Manager through
   a callout: a function invoked before creating a job manager request and
   before cancel/query/signal on a running job. The callout receives the
   credential of the requesting user, the credential (identity) of the user
   who started the job, the action, a unique job identifier and the RSL job
   description, and answers success or a typed authorization error. *)

type query = {
  requester : Grid_gsi.Dn.t;              (* authenticated grid identity *)
  requester_credential : Grid_gsi.Credential.t option;
  job_owner : Grid_gsi.Dn.t option;       (* initiator of the target job *)
  action : Grid_policy.Types.Action.t;
  job_id : string option;                 (* unique job identifier *)
  rsl : Grid_rsl.Ast.clause option;       (* job description, start only *)
  jobtag : string option;                 (* target job's tag, management *)
}

type error =
  | Denied of string
    (* the policy evaluated and said no *)
  | System_error of string
    (* the authorization system itself failed (paper: "authorization
       system failures" are distinguished from denials in the extended
       GRAM protocol errors) *)
  | Bad_configuration of string
    (* the callout could not even be located/loaded *)

type decision = (unit, error) result
type t = query -> decision

(* The shared permit. [Ok ()] is immutable, so one value can stand for
   every permitted decision — the batch pipeline returns this constant
   and allocates nothing on its hot (permitting) path. The PEPs likewise
   intern their recurring [Denied] values; see [File_pep]. *)
let permitted : decision = Ok ()

(* Rendering an error allocates (message concatenation), and the audit
   trail renders every denial on hot workload paths while the PEPs hand
   back physically shared (interned) error values. A one-slot
   physical-equality memo therefore collapses the rebuild to a pointer
   compare on repeats, without ever returning a stale string for a
   structurally-equal-but-distinct error. *)
let error_to_string_memo : (error * string) option ref = ref None

let error_to_string e =
  match !error_to_string_memo with
  | Some (e', s) when e' == e -> s
  | _ ->
    let s =
      match e with
      | Denied m -> "authorization denied: " ^ m
      | System_error m -> "authorization system failure: " ^ m
      | Bad_configuration m -> "authorization callout misconfigured: " ^ m
    in
    error_to_string_memo := Some (e, s);
    s

(* --- Query construction ----------------------------------------------- *)

(* The one smart constructor behind every query: callers state their
   intent through the variant instead of remembering which optional
   fields a start or a management question may carry. *)
module Query = struct
  type intent =
    | Start of Grid_rsl.Ast.clause
      (* job submission: the callout sees the full RSL job description *)
    | Management of {
        action : Grid_policy.Types.Action.t;
        job_owner : Grid_gsi.Dn.t;
        jobtag : string option;
      }
      (* cancel/query/signal on a running job: the callout sees the
         target job's initiator and tag instead of the RSL *)

  let make ~requester ?credential ?job_id intent =
    match intent with
    | Start rsl ->
      { requester; requester_credential = credential; job_owner = None;
        action = Grid_policy.Types.Action.Start; job_id; rsl = Some rsl; jobtag = None }
    | Management { action; job_owner; jobtag } ->
      { requester; requester_credential = credential; job_owner = Some job_owner;
        action; job_id; rsl = None; jobtag }
end

(* Translate a callout query into a policy-engine request. *)
let to_policy_request (q : query) : Grid_policy.Types.request =
  { Grid_policy.Types.subject = q.requester;
    action = q.action;
    job = q.rsl;
    jobowner = q.job_owner;
    jobtag = q.jobtag }

(* --- Combinators ---------------------------------------------------- *)

(* Every callout in the list must authorize (the multi-PEP conjunction of
   the interaction model: local policy AND VO policy). *)
let all (callouts : t list) : t =
 fun q ->
  let rec go = function
    | [] -> Ok ()
    | c :: rest -> begin
      match c q with
      | Ok () -> go rest
      | Error _ as e -> e
    end
  in
  if callouts = [] then Error (Bad_configuration "no authorization callouts configured")
  else go callouts

let permit_all : t = fun _ -> Ok ()

let deny_all ~reason : t = fun _ -> Error (Denied reason)

let failing ~message : t = fun _ -> Error (System_error message)

(* Instrumentation wrapper: count invocations (benchmarks, tests). *)
let counting (c : t) : t * (unit -> int) =
  let n = ref 0 in
  ( (fun q ->
      incr n;
      c q),
    fun () -> !n )

(* --- Batched decisions ------------------------------------------------- *)

(* The batch decision API. A [Batch.t] carries two lanes over the same
   policy: the single-shot callout every existing integration keeps
   using, and [evaluate_many], which answers a whole query array in one
   call so a backend can amortize — sort by subject for index locality,
   dedupe policy-identical questions, reuse evaluation scratch state —
   where the single-shot path pays per decision.

   Contract: [evaluate_many b qs] answers element-wise exactly what
   [Array.map (callout b) qs] would (decision and reason), and
   [results.(i)] always answers [qs.(i)] — internal partitioning or
   reordering never leaks into the returned array. The QCheck suite in
   [test_batch] holds every backend to both properties. *)
module Batch = struct
  type callout = t

  type t = {
    single : callout;
    many : query array -> decision array;
  }

  (* A native batch implementation: [many] must agree element-wise with
     [single]. *)
  let make ~single ~many = { single; many }

  (* The derived fallback: any plain callout becomes a batch by mapping
     the single-shot path — no amortization, full compatibility. *)
  let of_callout (c : callout) = { single = c; many = (fun qs -> Array.map c qs) }

  let callout b = b.single
  let check b q = b.single q
  let evaluate_many b qs = if Array.length qs = 0 then [||] else b.many qs
end

(* Full observability wrapper: the callout is the paper's PEP seam, so this
   is where every authorization decision is counted and timed. The span
   nests under whatever stage is current (the JMI's start/manage span),
   and the decision lands in authz_decisions_total split by action,
   outcome and backend. *)
(* The label vocabulary is a fixed four-element set; labels are drawn
   from one interned array so [outcome_label] never allocates and every
   metric carrying an outcome shares the same string values. *)
let outcome_labels = [| "permitted"; "denied"; "system_error"; "bad_configuration" |]

let outcome_index : decision -> int = function
  | Ok () -> 0
  | Error (Denied _) -> 1
  | Error (System_error _) -> 2
  | Error (Bad_configuration _) -> 3

let outcome_label (d : decision) : string = outcome_labels.(outcome_index d)

(* --- Resilience combinators ------------------------------------------ *)

(* The callout runs synchronously inside one simulation event, so a
   "timeout" is modelled by sampling the backend's would-be latency and
   comparing it against the budget: a slow backend yields System_error
   without the caller ever blocking. *)
let with_timeout ~budget ~latency (c : t) : t =
 fun q ->
  let sampled = latency () in
  if sampled > budget then
    Error
      (System_error
         (Printf.sprintf "authorization callout timed out (%.3fs > %.3fs budget)" sampled
            budget))
  else c q

(* Retry transient backend failures. Only [System_error] is retried:
   [Denied] is a definite answer and [Bad_configuration] will not heal by
   itself. Retries happen within the same simulation instant (the JMI
   blocks on the callout), so only the attempt count of [policy] matters
   here — backoff pacing applies to the networked client path. *)
let with_retry ?(policy = Grid_util.Retry.default) (c : t) : t =
 fun q ->
  let rec go attempt =
    match c q with
    | Error (System_error _) when attempt < policy.Grid_util.Retry.max_attempts ->
      go (attempt + 1)
    | decision -> decision
  in
  go 1

(* A circuit breaker in front of a callout: while open, answer
   System_error immediately instead of hammering a failing backend.
   Denials count as backend-healthy responses — the policy engine
   answered, it just said no. *)
let with_breaker ~breaker ~now (c : t) : t =
 fun q ->
  if not (Grid_util.Retry.Breaker.allow breaker ~now:(now ())) then
    Error (System_error "authorization backend circuit open")
  else begin
    let decision = c q in
    (match decision with
    | Ok () | Error (Denied _) -> Grid_util.Retry.Breaker.success breaker ~now:(now ())
    | Error (System_error _ | Bad_configuration _) ->
      Grid_util.Retry.Breaker.failure breaker ~now:(now ()));
    decision
  end

type degradation =
  | Fail_open
  | Fail_closed

(* Explicit degradation policy for backend outages. Only infrastructure
   failures (System_error / Bad_configuration) are degradable — a Denied
   is a policy answer and is never overridden. The default everywhere is
   Fail_closed, preserving the paper's default-deny stance: an
   unreachable authorization service must not grant access. Fail_open is
   for callers who decide availability beats enforcement on some
   non-critical decision point. *)
let degrade mode (c : t) : t =
 fun q ->
  match c q with
  | Ok () -> Ok ()
  | Error (Denied _) as denial -> denial
  | Error (System_error _ | Bad_configuration _) as outage -> (
    match mode with Fail_open -> Ok () | Fail_closed -> outage)

(* Deterministic fault injector for chaos tests: fail with System_error at
   the given probability, sampling from the caller's seeded stream. *)
let flaky ~rng ~failure_probability (c : t) : t =
  if failure_probability < 0.0 || failure_probability > 1.0 then
    invalid_arg "Callout.flaky: failure_probability must be a probability";
  fun q ->
    if
      failure_probability > 0.0
      && Grid_util.Rng.float rng 1.0 < failure_probability
    then Error (System_error "injected authorization backend fault")
    else c q

(* Earliest expiry across the presented chain: the instant after which
   no decision may rest on this credential. *)
let credential_expiry (cred : Grid_gsi.Credential.t) =
  match cred.Grid_gsi.Credential.chain with
  | [] -> None
  | chain ->
    Some
      (List.fold_left
         (fun acc (c : Grid_gsi.Cert.t) -> Float.min acc c.Grid_gsi.Cert.not_after)
         infinity chain)

(* The wide event every authorization decision leaves behind. It carries
   everything the online safety monitor needs to re-derive the answer:
   the full request (subject, action, rsl, jobowner, jobtag), the policy
   epoch the decision was made under, and the credential's expiry. *)
let decision_attrs ?epoch ~backend ~action (q : query) decision =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  [ ("backend", backend); ("action", action); ("outcome", outcome_label decision);
    ("subject", Grid_gsi.Dn.to_string q.requester) ]
  @ (match epoch with
    | None -> []
    | Some epoch -> [ ("epoch", string_of_int (epoch ())) ])
  @ opt "job_id" Fun.id q.job_id
  @ opt "jobtag" Fun.id q.jobtag
  @ opt "jobowner" Grid_gsi.Dn.to_string q.job_owner
  @ opt "rsl" Grid_rsl.Ast.clause_to_string q.rsl
  @ opt "cred_expiry" (Printf.sprintf "%.3f")
      (Option.bind q.requester_credential credential_expiry)

(* Metric label lists for the instrumented hot path, preallocated per
   (action, outcome) when the wrapper is built: the action and outcome
   vocabularies are closed, so the per-decision cost is two array loads
   instead of a fresh three-pair association list per call. *)
let action_slot : Grid_policy.Types.Action.t -> int = function
  | Grid_policy.Types.Action.Start -> 0
  | Grid_policy.Types.Action.Cancel -> 1
  | Grid_policy.Types.Action.Information -> 2
  | Grid_policy.Types.Action.Signal -> 3

let decision_label_table ~backend =
  let actions = Array.of_list Grid_policy.Types.Action.all in
  Array.map
    (fun action ->
      let action = Grid_policy.Types.Action.to_string action in
      Array.map
        (fun outcome -> [ ("backend", backend); ("action", action); ("outcome", outcome) ])
        outcome_labels)
    actions

let span_attr_table ~backend =
  Array.of_list
    (List.map
       (fun action ->
         [ ("backend", backend); ("action", Grid_policy.Types.Action.to_string action) ])
       Grid_policy.Types.Action.all)

let instrument ?(backend = "pep") ?epoch ~obs (c : t) : t =
  if not (Grid_obs.Obs.enabled obs) then c
  else begin
    let labels = decision_label_table ~backend in
    let span_attrs = span_attr_table ~backend in
    fun q ->
      let slot = action_slot q.action in
      let action = Grid_policy.Types.Action.to_string q.action in
      let decision =
        Grid_obs.Obs.with_span obs ~attrs:span_attrs.(slot) "authz.callout"
          (fun span ->
            let decision = c q in
            Grid_obs.Span.set_attr span "outcome" (outcome_label decision);
            decision)
      in
      Grid_obs.Obs.incr obs ~labels:labels.(slot).(outcome_index decision)
        "authz_decisions_total";
      Grid_obs.Obs.emit obs ~layer:"callout" "authz.decision"
        (decision_attrs ?epoch ~backend ~action q decision);
      decision
  end

(* Batched sibling of {!instrument}. The whole batch runs under one
   ["authz.batch"] span; counters are incremented in bulk per
   (action, outcome) cell, but the ["authz.decision"] wide event is
   still emitted per decision — the online safety monitor re-derives
   each answer from that record, so batching must not thin it out. *)
let instrument_batch ?(backend = "pep") ?epoch ~obs (b : Batch.t) : Batch.t =
  if not (Grid_obs.Obs.enabled obs) then b
  else begin
    let single = instrument ~backend ?epoch ~obs (Batch.callout b) in
    let labels = decision_label_table ~backend in
    let many qs =
      let n = Array.length qs in
      let decisions =
        Grid_obs.Obs.with_span obs
          ~attrs:[ ("backend", backend); ("size", string_of_int n) ]
          "authz.batch"
          (fun _ -> b.Batch.many qs)
      in
      let counts = Array.make_matrix 4 (Array.length outcome_labels) 0 in
      Array.iteri
        (fun i q ->
          let decision = decisions.(i) in
          let a = action_slot q.action and o = outcome_index decision in
          counts.(a).(o) <- counts.(a).(o) + 1;
          Grid_obs.Obs.emit obs ~layer:"callout" "authz.decision"
            (decision_attrs ?epoch ~backend
               ~action:(Grid_policy.Types.Action.to_string q.action)
               q decision))
        qs;
      Array.iteri
        (fun a per_outcome ->
          Array.iteri
            (fun o count ->
              if count > 0 then
                Grid_obs.Obs.incr obs ~by:(float_of_int count) ~labels:labels.(a).(o)
                  "authz_decisions_total")
            per_outcome)
        counts;
      decisions
    in
    Batch.make ~single ~many
  end
