(* The Job Manager Instance (JMI).

   One JMI exists per job (Figure 1). It parses the user's request,
   interfaces with the local job control system to initiate the job, then
   monitors it and services management requests. In GT2 baseline mode the
   JMI does no authorization on startup (the Gatekeeper already did) and
   authorizes management with the static rule "requester = initiator"; in
   extended mode it calls the authorization callout before creating the
   job manager request and before every cancel/status/signal (Section
   5.2).

   The JMI runs under the job owner's local credential; [account] is that
   credential. The simulator's LRM enforces per-account limits through the
   sandbox profile attached at mapping time. *)

type t = {
  contact : string;                         (* the GRAM job contact *)
  owner : Grid_gsi.Dn.t;                    (* grid identity of the initiator *)
  account : string;                         (* local credential the JMI runs under *)
  limits : Grid_accounts.Sandbox.limits;
  job : Grid_rsl.Job.t;
  jobtag : string option;
  mode : Mode.t;
  allocation : Grid_accounts.Allocation.enforcement option;
  lrm : Grid_lrm.Lrm.t;
  engine : Grid_sim.Engine.t;
  audit : Grid_audit.Audit.t;
  trace : Grid_sim.Trace.t;
  obs : Grid_obs.Obs.t;
  mutable lrm_job : string option;          (* local scheduler job id *)
  mutable callout_invocations : int;
}

(* Simulation-only RSL attribute giving the job's compute need in seconds
   (real jobs just run; the simulator must know when they finish). *)
let sim_duration_attribute = "simduration"
let default_duration = 60.0

let duration_of_job (job : Grid_rsl.Job.t) =
  let clause = Grid_rsl.Job.clause job in
  match
    List.find_opt
      (fun (r : Grid_rsl.Ast.relation) ->
        r.attribute = sim_duration_attribute && r.op = Grid_rsl.Ast.Eq)
      clause
  with
  | Some { values = [ Grid_rsl.Ast.Literal s ]; _ } -> begin
    match float_of_string_opt s with Some d when d >= 0.0 -> d | Some _ | None -> default_duration
  end
  | Some _ | None -> default_duration

let create ?allocation ?(obs = Grid_obs.Obs.noop) ~owner ~account ~limits ~job ~mode ~lrm
    ~engine ~audit ~trace () =
  { contact = Grid_util.Ids.contact ();
    owner;
    account;
    limits;
    job;
    jobtag = job.Grid_rsl.Job.jobtag;
    mode;
    allocation;
    lrm;
    engine;
    audit;
    trace;
    obs;
    lrm_job = None;
    callout_invocations = 0 }

(* Rebuild a JMI from its journalled creation record after a job-manager
   crash. No startup side effects run: the LRM (which survives the
   crash) already holds the job, so the restored instance just re-attaches
   to it by the recorded scheduler id and resumes serving management
   requests under the same contact. *)
let restore ?(obs = Grid_obs.Obs.noop) ~contact ~owner ~account ~limits ~job ~mode ~lrm
    ~engine ~audit ~trace ~lrm_job () =
  { contact;
    owner;
    account;
    limits;
    job;
    jobtag = job.Grid_rsl.Job.jobtag;
    mode;
    allocation = None;
    lrm;
    engine;
    audit;
    trace;
    obs;
    lrm_job;
    callout_invocations = 0 }

let contact t = t.contact
let lrm_job_id t = t.lrm_job
let owner t = t.owner
let account t = t.account
let limits t = t.limits
let job t = t.job
let jobtag t = t.jobtag
let callout_invocations t = t.callout_invocations

let now t = Grid_sim.Engine.now t.engine

let record t ~target label =
  Grid_sim.Trace.record t.trace ~at:(now t) ~source:("jmi:" ^ t.contact) ~target label

let authorize t (query : Grid_callout.Callout.query) =
  match t.mode with
  | Mode.Gt2_baseline ->
    (* Baseline management rule: the Grid identity of the requester must
       match the Grid identity of the job initiator. Start requests reach
       the JMI pre-authorized by the Gatekeeper (and are not counted as
       authorization decisions — no check happens here). *)
    if query.Grid_callout.Callout.action = Grid_policy.Types.Action.Start then Ok ()
    else begin
      let decision =
        if Grid_gsi.Dn.equal query.Grid_callout.Callout.requester t.owner then Ok ()
        else
          Error
            (Grid_callout.Callout.Denied "GT2: only the job initiator may manage this job")
      in
      if Grid_obs.Obs.enabled t.obs then
        Grid_obs.Obs.incr t.obs
          ~labels:
            [ ("backend", "gt2");
              ("action", Grid_policy.Types.Action.to_string query.Grid_callout.Callout.action);
              ("outcome", Grid_callout.Callout.outcome_label decision) ]
          "authz_decisions_total";
      decision
    end
  | Mode.Extended { authorization; _ } ->
    (* The Extended callout arrives already wrapped by [Mode.instrument],
       so consultations are spanned/counted there under the mode's
       backend label. *)
    t.callout_invocations <- t.callout_invocations + 1;
    record t ~target:"pep" "authorization callout";
    Grid_callout.Callout.Batch.check authorization query

(* --- Job startup ------------------------------------------------------- *)

let audit_authz t ~requester ~job_id ~action outcome =
  Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Authorization
    ~subject:requester ~job_id
    ?corr_id:(Grid_obs.Obs.correlation t.obs)
    ~outcome
    (Printf.sprintf "action=%s mode=%s" action (Mode.to_string t.mode))

let start_inner t ~(credential : Grid_gsi.Credential.t option) :
    (Protocol.submit_reply, Protocol.submit_error) result =
  let query =
    { Grid_callout.Callout.requester = t.owner;
      requester_credential = credential;
      job_owner = None;
      action = Grid_policy.Types.Action.Start;
      job_id = Some t.contact;
      rsl = Some (Grid_rsl.Job.clause t.job);
      jobtag = t.jobtag }
  in
  match authorize t query with
  | Error e ->
    audit_authz t ~requester:t.owner ~job_id:t.contact ~action:"start"
      (Grid_audit.Audit.Failure (Grid_callout.Callout.error_to_string e));
    Error (Protocol.Authorization_failed (Protocol.authz_failure_of_callout e))
  | Ok () ->
    audit_authz t ~requester:t.owner ~job_id:t.contact ~action:"start"
      Grid_audit.Audit.Success;
    (* Policy-derived enforcement (the Section 7 "GT3" direction): when
       the PEP can say which clause the permit rested on, the sandbox is
       tightened to that clause's envelope — the continuous-enforcement
       half the gateway model lacks (Section 6.1). *)
    let effective_limits =
      match t.mode with
      | Mode.Extended { advice = Some advise; _ } -> begin
        match advise query with
        | Some clause ->
          let derived = Grid_accounts.Sandbox.of_policy_clause clause in
          Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Account_mapping
            ~subject:t.owner ~job_id:t.contact ~outcome:Grid_audit.Audit.Success
            (Printf.sprintf "sandbox derived from policy clause %s"
               (Grid_policy.Types.clause_to_string clause));
          Grid_accounts.Sandbox.intersect t.limits derived
        | None -> t.limits
      end
      | Mode.Extended { advice = None; _ } | Mode.Gt2_baseline -> t.limits
    in
    let violations =
      Grid_obs.Obs.with_span t.obs "sandbox.check" (fun _ ->
          Grid_accounts.Sandbox.check effective_limits t.job)
    in
    if violations <> [] then begin
      let messages = List.map Grid_accounts.Sandbox.violation_to_string violations in
      Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Job_submission
        ~subject:t.owner ~job_id:t.contact
        ~outcome:(Grid_audit.Audit.Failure (String.concat "; " messages))
        "sandbox refused job";
      Error (Protocol.Sandbox_violation messages)
    end
    else begin
      let walltime_limit =
        (* The tighter of the user's request and the sandbox envelope:
           the policy-derived cap is enforced even when the request
           omits maxwalltime. *)
        match
          ( Option.map (fun minutes -> minutes *. 60.0) t.job.Grid_rsl.Job.max_wall_time,
            effective_limits.Grid_accounts.Sandbox.max_walltime )
        with
        | None, cap -> cap
        | requested, None -> requested
        | Some r, Some cap -> Some (Float.min r cap)
      in
      let spec =
        { Grid_lrm.Lrm.cpus = t.job.Grid_rsl.Job.count;
          duration = duration_of_job t.job;
          walltime_limit;
          queue = t.job.Grid_rsl.Job.queue }
      in
      (* Coarse-grained allocation (Section 2): reserve the worst-case
         cpu-seconds before submission; settle against actual walltime
         usage when the job reaches a terminal state. *)
      let reservation =
        match t.allocation with
        | None -> Ok None
        | Some { Grid_accounts.Allocation.bank; party_of } -> begin
          match party_of t.owner with
          | None ->
            Error
              (Printf.sprintf "no resource allocation covers %s"
                 (Grid_gsi.Dn.to_string t.owner))
          | Some party ->
            let worst_case_seconds =
              match spec.Grid_lrm.Lrm.walltime_limit with
              | Some w -> w
              | None -> spec.Grid_lrm.Lrm.duration
            in
            let amount = float_of_int spec.Grid_lrm.Lrm.cpus *. worst_case_seconds in
            (match Grid_accounts.Allocation.reserve bank ~party ~amount with
            | Ok r -> Ok (Some r)
            | Error e -> Error (Grid_accounts.Allocation.error_to_string e))
        end
      in
      match reservation with
      | Error message ->
        Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Job_submission
          ~subject:t.owner ~job_id:t.contact
          ~outcome:(Grid_audit.Audit.Failure message) "allocation refused job";
        Error (Protocol.Allocation_refused message)
      | Ok reservation -> begin
        record t ~target:"lrm" "submit job";
        match
          Grid_obs.Obs.with_span t.obs "lrm.submit" (fun _ ->
              Grid_lrm.Lrm.submit t.lrm spec)
        with
        | Error e ->
          Option.iter Grid_accounts.Allocation.cancel reservation;
          Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Job_submission
            ~subject:t.owner ~job_id:t.contact
            ~outcome:(Grid_audit.Audit.Failure (Grid_lrm.Lrm.error_to_string e))
            "local resource manager refused job";
          Error (Protocol.Resource_unavailable (Grid_lrm.Lrm.error_to_string e))
        | Ok lrm_id ->
          t.lrm_job <- Some lrm_id;
          (* The job's lifetime outlives this call: a detached span from
             submission to the terminal LRM state, closed from the state
             change listener. *)
          if Grid_obs.Obs.enabled t.obs then begin
            let run_span =
              Grid_obs.Obs.start_span t.obs
                ~attrs:[ ("lrm_job", lrm_id); ("account", t.account) ]
                "job.run"
            in
            Grid_lrm.Lrm.watch t.lrm lrm_id
              (fun (Grid_lrm.Lrm.State_changed { job; _ }) ->
                if Grid_lrm.Lrm.is_terminal job.Grid_lrm.Lrm.state then begin
                  Grid_obs.Span.set_attr run_span "state"
                    (Grid_lrm.Lrm.state_to_string job.Grid_lrm.Lrm.state);
                  Grid_obs.Obs.finish_span t.obs run_span
                end)
          end;
          (match reservation with
          | None -> ()
          | Some reservation ->
            let cpus = float_of_int spec.Grid_lrm.Lrm.cpus in
            Grid_lrm.Lrm.watch t.lrm lrm_id
              (fun (Grid_lrm.Lrm.State_changed { job; _ }) ->
                if Grid_lrm.Lrm.is_terminal job.Grid_lrm.Lrm.state then
                  Grid_accounts.Allocation.settle reservation
                    ~actual:(cpus *. job.Grid_lrm.Lrm.walltime_used)));
          Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Job_submission
            ~subject:t.owner ~job_id:t.contact ~outcome:Grid_audit.Audit.Success
            (Printf.sprintf "lrm job %s under account %s" lrm_id t.account);
          Ok { Protocol.job_contact = t.contact; submitted_as = t.account }
      end
    end

let start t ~credential =
  if not (Grid_obs.Obs.enabled t.obs) then start_inner t ~credential
  else
    Grid_obs.Obs.with_span t.obs
      ~attrs:[ ("contact", t.contact) ]
      "jmi.start"
      (fun span ->
        let result = start_inner t ~credential in
        let outcome = match result with Ok _ -> "ok" | Error _ -> "refused" in
        Grid_obs.Span.set_attr span "outcome" outcome;
        Grid_obs.Obs.emit t.obs ~layer:"jmi" "jmi.start"
          [ ("contact", t.contact); ("outcome", outcome) ];
        result)

(* --- Management --------------------------------------------------------- *)

let status t : (Protocol.job_status, Protocol.management_error) result =
  match t.lrm_job with
  | None -> Error (Protocol.Invalid_request "job was never started")
  | Some lrm_id -> begin
    match Grid_lrm.Lrm.query t.lrm lrm_id with
    | Error e -> Error (Protocol.Invalid_request (Grid_lrm.Lrm.error_to_string e))
    | Ok st ->
      Ok
        { Protocol.owner = t.owner;
          state = Protocol.job_state_of_lrm st.Grid_lrm.Lrm.job_state;
          jobtag = t.jobtag }
  end

let perform t (action : Protocol.management_action) :
    (Protocol.management_reply, Protocol.management_error) result =
  match t.lrm_job with
  | None -> Error (Protocol.Invalid_request "job was never started")
  | Some lrm_id -> begin
    let lift = function
      | Ok _ -> Ok Protocol.Ack
      | Error e -> Error (Protocol.Invalid_request (Grid_lrm.Lrm.error_to_string e))
    in
    let spanned name op =
      Grid_obs.Obs.with_span t.obs name (fun _ -> lift (op ()))
    in
    match action with
    | Protocol.Cancel -> begin
      (* Cancel is idempotent: a job already cancelled acknowledges again
         rather than failing, so a retried (or duplicate-delivered) cancel
         whose first reply was lost still converges on Ack. *)
      match Grid_lrm.Lrm.query t.lrm lrm_id with
      | Ok { Grid_lrm.Lrm.job_state = Grid_lrm.Lrm.Cancelled; _ } -> Ok Protocol.Ack
      | Ok _ | Error _ ->
        record t ~target:"lrm" "cancel job";
        spanned "lrm.cancel" (fun () -> Grid_lrm.Lrm.cancel t.lrm lrm_id)
    end
    | Protocol.Status -> begin
      match status t with
      | Ok st -> Ok (Protocol.Job_status st)
      | Error _ as e -> e
    end
    | Protocol.Signal Protocol.Suspend ->
      record t ~target:"lrm" "suspend job";
      spanned "lrm.suspend" (fun () -> Grid_lrm.Lrm.suspend t.lrm lrm_id)
    | Protocol.Signal Protocol.Resume ->
      record t ~target:"lrm" "resume job";
      spanned "lrm.resume" (fun () -> Grid_lrm.Lrm.resume t.lrm lrm_id)
    | Protocol.Signal (Protocol.Set_priority p) ->
      record t ~target:"lrm" "set priority";
      spanned "lrm.set_priority" (fun () -> Grid_lrm.Lrm.set_priority t.lrm lrm_id p)
  end

let management_query t ~requester ~(credential : Grid_gsi.Credential.t option)
    (action : Protocol.management_action) : Grid_callout.Callout.query =
  { Grid_callout.Callout.requester;
    requester_credential = credential;
    job_owner = Some t.owner;
    action = Protocol.to_policy_action action;
    job_id = Some t.contact;
    rsl = None;
    jobtag = t.jobtag }

(* The post-authorization half of a management request: audit the
   decision and, when permitted, perform the action. Shared by the
   single-shot path and the batched path, so both audit and act
   identically. *)
let manage_decided t ~requester (action : Protocol.management_action)
    (decision : Grid_callout.Callout.decision) :
    (Protocol.management_reply, Protocol.management_error) result =
  let action_name = Protocol.management_action_to_string action in
  match decision with
  | Error e ->
    audit_authz t ~requester ~job_id:t.contact ~action:action_name
      (Grid_audit.Audit.Failure (Grid_callout.Callout.error_to_string e));
    Error (Protocol.Not_authorized (Protocol.authz_failure_of_callout e))
  | Ok () ->
    audit_authz t ~requester ~job_id:t.contact ~action:action_name Grid_audit.Audit.Success;
    Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Job_management
      ~subject:requester ~job_id:t.contact ~outcome:Grid_audit.Audit.Success action_name;
    perform t action

let manage_inner t ~requester ?(credential : Grid_gsi.Credential.t option)
    (action : Protocol.management_action) :
    (Protocol.management_reply, Protocol.management_error) result =
  let query = management_query t ~requester ~credential action in
  manage_decided t ~requester action (authorize t query)

(* Span/counter/event wrapper around one management request; shared by
   [manage] and the batched path so every request lands in
   [management_requests_total] and the ["jmi.manage"] event stream the
   same way, batched or not. *)
let observed_manage t (action : Protocol.management_action) run =
  if not (Grid_obs.Obs.enabled t.obs) then run ()
  else begin
    let action_name = Protocol.management_action_to_string action in
    Grid_obs.Obs.with_span t.obs
      ~attrs:[ ("action", action_name); ("contact", t.contact) ]
      "jmi.manage"
      (fun span ->
        let result = run () in
        let outcome =
          match result with
          | Ok _ -> "ok"
          | Error (Protocol.Not_authorized _) -> "denied"
          | Error _ -> "error"
        in
        Grid_obs.Span.set_attr span "outcome" outcome;
        Grid_obs.Obs.incr t.obs
          ~labels:[ ("action", action_name); ("outcome", outcome) ]
          "management_requests_total";
        Grid_obs.Obs.emit t.obs ~layer:"jmi" "jmi.manage"
          [ ("contact", t.contact); ("action", action_name); ("outcome", outcome) ];
        result)
  end

let manage t ~requester ?credential action =
  observed_manage t action (fun () -> manage_inner t ~requester ?credential action)

(* --- Batched management ------------------------------------------------ *)

(* Authorize-and-perform a whole batch of management requests, possibly
   spanning many JMIs. Authorization goes through the Extended mode's
   many lane: items sharing one (physically equal) batch callout — the
   common case, since a resource wires one mode into every JMI — are
   authorized in a single [evaluate_many] call; baseline items keep the
   inline initiator check. Every item is then audited/performed through
   the same [manage_decided]/[observed_manage] pair as the single-shot
   path, and the result array preserves request order. *)
let manage_many
    (items :
      (t * Grid_gsi.Dn.t * Grid_gsi.Credential.t option * Protocol.management_action)
      array) : (Protocol.management_reply, Protocol.management_error) result array =
  let n = Array.length items in
  let decisions = Array.make n Grid_callout.Callout.permitted in
  let groups : (Grid_callout.Callout.Batch.t * int list ref) list ref = ref [] in
  for i = 0 to n - 1 do
    let t, requester, credential, action = items.(i) in
    match t.mode with
    | Mode.Gt2_baseline ->
      decisions.(i) <- authorize t (management_query t ~requester ~credential action)
    | Mode.Extended { authorization; _ } -> begin
      t.callout_invocations <- t.callout_invocations + 1;
      record t ~target:"pep" "authorization callout";
      match List.find_opt (fun (b, _) -> b == authorization) !groups with
      | Some (_, ids) -> ids := i :: !ids
      | None -> groups := (authorization, ref [ i ]) :: !groups
    end
  done;
  List.iter
    (fun (authorization, ids) ->
      let idx = Array.of_list (List.rev !ids) in
      let queries =
        Array.map
          (fun i ->
            let t, requester, credential, action = items.(i) in
            management_query t ~requester ~credential action)
          idx
      in
      let answers = Grid_callout.Callout.Batch.evaluate_many authorization queries in
      Array.iteri (fun k i -> decisions.(i) <- answers.(k)) idx)
    !groups;
  Array.mapi
    (fun i (t, requester, _credential, action) ->
      observed_manage t action (fun () -> manage_decided t ~requester action decisions.(i)))
    items
