(* The Gatekeeper.

   Authenticates the requesting grid user, authorizes the job invocation
   request (GT2: presence in the grid-mapfile / resolvable account),
   determines the local account, and creates a Job Manager Instance for
   the request (Section 4.1). Challenges are minted here and must be
   answered by the submitted credential — replay of an old credential
   fails. *)

type t = {
  name : string;
  trust : Grid_gsi.Ca.Trust_store.store;
  mapper : Grid_accounts.Mapper.t;
  mode : Mode.t;
  (* Optional PEP at the gatekeeper decision point (Section 5.2: "a PEP
     placed in the Gatekeeper can allow or disallow access based on the
     user's Grid identity"). It sees only job invocations — management
     requests never pass through the Gatekeeper — which is exactly why
     the paper put the main PEP in the Job Manager. *)
  gatekeeper_pep : Grid_callout.Callout.t option;
  allocation : Grid_accounts.Allocation.enforcement option;
  lrm : Grid_lrm.Lrm.t;
  engine : Grid_sim.Engine.t;
  audit : Grid_audit.Audit.t;
  trace : Grid_sim.Trace.t;
  obs : Grid_obs.Obs.t;
  outstanding_challenges : (string, unit) Hashtbl.t;
}

let create ?gatekeeper_pep ?allocation ~name ~trust ~mapper ~mode ~lrm ~engine ~audit
    ~trace ~obs () =
  { name; trust; mapper; mode; gatekeeper_pep; allocation; lrm; engine; audit; trace; obs;
    outstanding_challenges = Hashtbl.create 16 }

let now t = Grid_sim.Engine.now t.engine

let new_challenge t =
  let challenge = Grid_gsi.Authn.fresh_challenge () in
  Hashtbl.replace t.outstanding_challenges challenge ();
  challenge

let record t ~target label =
  Grid_sim.Trace.record t.trace ~at:(now t) ~source:t.name ~target label

let authenticate_raw t (credential : Grid_gsi.Credential.t) =
  let challenge = credential.Grid_gsi.Credential.challenge in
  if not (Hashtbl.mem t.outstanding_challenges challenge) then
    Error (Grid_gsi.Authn.Challenge_mismatch)
  else begin
    Hashtbl.remove t.outstanding_challenges challenge;
    Grid_gsi.Authn.authenticate ~trust:t.trust ~now:(now t) ~challenge credential
  end

(* Instrumented wrappers around the two coarse-grained gatekeeper stages;
   each becomes a child span with an outcome-labelled counter. *)
let observed_authenticate t credential =
  if not (Grid_obs.Obs.enabled t.obs) then authenticate_raw t credential
  else
    Grid_obs.Obs.with_span t.obs "gsi.authenticate" (fun span ->
        let result = authenticate_raw t credential in
        let outcome = match result with Ok _ -> "ok" | Error _ -> "failed" in
        Grid_obs.Span.set_attr span "outcome" outcome;
        Grid_obs.Obs.incr t.obs ~labels:[ ("outcome", outcome) ] "authn_total";
        Grid_obs.Obs.emit t.obs ~layer:"gatekeeper" "authn"
          ([ ("outcome", outcome) ]
          @ (match result with
            | Ok ctx ->
              [ ("subject", Grid_gsi.Dn.to_string ctx.Grid_gsi.Authn.peer) ]
            | Error e -> [ ("reason", Grid_gsi.Authn.error_to_string e) ]));
        result)

let observed_resolve t user =
  let resolve () = Grid_accounts.Mapper.resolve t.mapper ~now:(now t) user in
  if not (Grid_obs.Obs.enabled t.obs) then resolve ()
  else
    Grid_obs.Obs.with_span t.obs "account.map" (fun span ->
        let result = resolve () in
        let outcome =
          match result with
          | Ok _ -> "mapped"
          | Error (Grid_accounts.Mapper.No_local_account _) -> "no_account"
          | Error _ -> "failed"
        in
        Grid_obs.Span.set_attr span "outcome" outcome;
        Grid_obs.Obs.incr t.obs ~labels:[ ("outcome", outcome) ] "account_mappings_total";
        result)

(* The exported authenticate is the instrumented one so that the JMI's
   management-request authentication is counted alongside submissions. *)
let authenticate = observed_authenticate

let submit_inner t ~(credential : Grid_gsi.Credential.t) ~(rsl : string) :
    (Job_manager.t * Protocol.submit_reply, Protocol.submit_error) result =
  let corr_id = Grid_obs.Obs.correlation t.obs in
  (* 1. Authentication (GSI mutual auth). *)
  match observed_authenticate t credential with
  | Error e ->
    Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Authentication
      ?corr_id
      ~outcome:(Grid_audit.Audit.Failure (Grid_gsi.Authn.error_to_string e))
      "job submission";
    Error (Protocol.Authentication_failed (Grid_gsi.Authn.error_to_string e))
  | Ok ctx ->
    let user = ctx.Grid_gsi.Authn.peer in
    Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Authentication
      ?corr_id ~subject:user ~outcome:Grid_audit.Audit.Success "job submission";
    if Grid_gsi.Credential.is_limited credential then begin
      (* GSI limited proxies authenticate but may not start jobs: the
         standard protection against credentials leaked from worker
         nodes being replayed into fresh submissions. *)
      Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Authorization
        ~subject:user
        ~outcome:(Grid_audit.Audit.Failure "limited proxy")
        "gatekeeper refused job startup";
      Error (Protocol.Gatekeeper_refused "limited proxies may not start jobs")
    end
    else
    (* 2. Parse the RSL job description. In baseline mode the jobtag
       parameter does not exist in the protocol. *)
    let parse_result = Grid_rsl.Job.of_string rsl in
    (match parse_result with
    | Error e -> Error (Protocol.Bad_rsl (Grid_rsl.Job.error_to_string e))
    | Ok job ->
      if (not (Mode.is_extended t.mode)) && job.Grid_rsl.Job.jobtag <> None then
        Error (Protocol.Bad_rsl "GT2: unknown RSL attribute 'jobtag'")
      else begin
        (* 2b. Gatekeeper-level PEP, when configured. *)
        let gatekeeper_authz =
          match t.gatekeeper_pep with
          | None -> Ok ()
          | Some pep ->
            record t ~target:"pep" "gatekeeper authorization callout";
            pep
              { Grid_callout.Callout.requester = user;
                requester_credential = Some credential;
                job_owner = None;
                action = Grid_policy.Types.Action.Start;
                job_id = None;
                rsl = Some (Grid_rsl.Job.clause job);
                jobtag = job.Grid_rsl.Job.jobtag }
        in
        match gatekeeper_authz with
        | Error e ->
          Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Authorization
            ~subject:user
            ~outcome:(Grid_audit.Audit.Failure (Grid_callout.Callout.error_to_string e))
            "gatekeeper PEP";
          Error (Protocol.Authorization_failed (Protocol.authz_failure_of_callout e))
        | Ok () ->
        (* 3. Coarse-grained authorization + account mapping: the
           grid-mapfile check and local-credential selection in one
           resolution step (dynamic accounts extend it transparently). *)
        match observed_resolve t user with
        | Error (Grid_accounts.Mapper.No_local_account _ as e) ->
          Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Account_mapping
            ~subject:user
            ~outcome:(Grid_audit.Audit.Failure (Grid_accounts.Mapper.error_to_string e))
            "gatekeeper refused";
          Error (Protocol.Gatekeeper_refused (Grid_accounts.Mapper.error_to_string e))
        | Error e ->
          Error (Protocol.Account_mapping_failed (Grid_accounts.Mapper.error_to_string e))
        | Ok mapping ->
          Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Account_mapping
            ~subject:user ~outcome:Grid_audit.Audit.Success
            (Printf.sprintf "mapped to account %s" mapping.Grid_accounts.Mapper.account);
          (* 4. Create the Job Manager Instance under the local
             credential and hand it the request. *)
          let jmi =
            Job_manager.create ?allocation:t.allocation ~obs:t.obs ~owner:user
              ~account:mapping.Grid_accounts.Mapper.account
              ~limits:mapping.Grid_accounts.Mapper.limits ~job ~mode:t.mode ~lrm:t.lrm
              ~engine:t.engine ~audit:t.audit ~trace:t.trace ()
          in
          record t ~target:("jmi:" ^ Job_manager.contact jmi) "create job manager";
          (match Job_manager.start jmi ~credential:(Some credential) with
          | Error _ as e -> e
          | Ok reply -> Ok (jmi, reply))
      end)

let handle_submit t ~credential ~rsl =
  if not (Grid_obs.Obs.enabled t.obs) then submit_inner t ~credential ~rsl
  else
    Grid_obs.Obs.with_span t.obs "gatekeeper.submit" (fun span ->
        let result = submit_inner t ~credential ~rsl in
        let outcome = match result with Ok _ -> "accepted" | Error _ -> "refused" in
        Grid_obs.Span.set_attr span "outcome" outcome;
        Grid_obs.Obs.incr t.obs ~labels:[ ("outcome", outcome) ] "jobs_submitted_total";
        result)
