(* A GRAM-managed resource: the assembly of Gatekeeper, Job Manager
   Instances, local resource manager, account mapping and audit trail,
   reachable over the simulated network.

   This is "one site" in grid terms. Direct entry points (submit/manage)
   run synchronously at the resource — microbenchmarks use them to measure
   pure decision cost; the networked entry points model the wire hops of
   Figures 1 and 2 and are what the Client uses. *)

type t = {
  name : string;
  engine : Grid_sim.Engine.t;
  network : Grid_sim.Network.t;
  gatekeeper : Gatekeeper.t;
  lrm : Grid_lrm.Lrm.t;
  audit : Grid_audit.Audit.t;
  trace : Grid_sim.Trace.t;
  obs : Grid_obs.Obs.t;
  request_timeout : float option;
  authz_cache : Grid_callout.Cache.t option;
  mode : Mode.t;  (* the wrapped (cached + instrumented) mode, for restore *)
  store : Grid_store.Store.t option;
  policy_epoch : (unit -> int) option;
  jmis : (string, Job_manager.t) Hashtbl.t;
  (* Durable-state mirrors, only populated when [store] is present: the
     journalled creation record per contact (the snapshot source) and the
     scheduler-id -> contact map driving terminal-state journalling. *)
  entries : (string, Persist.job_entry) Hashtbl.t;
  lrm_contacts : (string, string) Hashtbl.t;
}

(* Bridge injected network faults into the metrics registry and the wide
   event stream so chaos runs are measurable and correlatable:
   network_faults_total{event,link} plus a "net.fault" event. *)
let observe_faults ~obs network =
  if Grid_obs.Obs.enabled obs then
    Grid_sim.Network.on_fault network (fun event ->
        let event_label, link =
          match event with
          | Grid_sim.Network.Dropped link -> ("dropped", link)
          | Grid_sim.Network.Duplicated link -> ("duplicated", link)
          | Grid_sim.Network.Delayed (link, _) -> ("delayed", link)
          | Grid_sim.Network.Partitioned link -> ("partitioned", link)
        in
        Grid_obs.Obs.incr obs
          ~labels:[ ("event", event_label); ("link", link) ]
          "network_faults_total";
        Grid_obs.Obs.emit obs ~layer:"net" "net.fault"
          [ ("event", event_label); ("link", link) ])

(* Serialize the live job table for snapshot compaction: one Job_created
   record per contact, in sorted contact order so snapshots are
   deterministic across runs with the same seed. *)
let snapshot_entries entries () =
  Hashtbl.fold (fun _ entry acc -> entry :: acc) entries []
  |> List.sort (fun (a : Persist.job_entry) b -> String.compare a.contact b.contact)
  |> List.map (fun entry -> Persist.encode (Persist.Job_created entry))

let record_event t event =
  match t.store with
  | None -> ()
  | Some store -> Grid_store.Store.append store (Persist.encode event)

let create ?(name = "resource") ?network ?gatekeeper_pep ?allocation ?obs
    ?request_timeout ?authz_cache ?store ?policy_epoch ~trust ~mapper ~mode ~lrm ~engine
    () =
  let network =
    match network with Some n -> n | None -> Grid_sim.Network.create engine
  in
  let obs = match obs with Some o -> o | None -> Grid_obs.Obs.of_engine engine in
  observe_faults ~obs network;
  let audit = Grid_audit.Audit.create () in
  let trace = Grid_sim.Trace.create () in
  (* Cache inside instrumentation: a hit is still a counted decision. *)
  let mode =
    match authz_cache with None -> mode | Some cache -> Mode.with_cache ~cache mode
  in
  let mode = Mode.instrument ?epoch:policy_epoch ~obs mode in
  (* The gatekeeper PEP is composed the same way, sharing the cache
     under its own scope (it answers from different policy than the job
     manager's callout). *)
  let gatekeeper_pep =
    Option.map
      (fun pep ->
        let pep = Grid_callout.Callout.Batch.of_callout pep in
        let pep =
          match authz_cache with
          | None -> pep
          | Some cache -> Grid_callout.Cache.with_cache_many cache ~scope:"gatekeeper" pep
        in
        Grid_callout.Callout.(Batch.check (instrument ~backend:"gatekeeper" ~obs pep)))
      gatekeeper_pep
  in
  let gatekeeper =
    Gatekeeper.create ?gatekeeper_pep ?allocation ~name:(name ^ ":gatekeeper") ~trust
      ~mapper ~mode ~lrm ~engine ~audit ~trace ~obs ()
  in
  let t =
    { name; engine; network; gatekeeper; lrm; audit; trace; obs; request_timeout;
      authz_cache; mode; store; policy_epoch; jmis = Hashtbl.create 32;
      entries = Hashtbl.create 32; lrm_contacts = Hashtbl.create 32 }
  in
  (* Degraded authorization decisions belong in the audit trail, not just
     the event stream: a fail-open conversion is a security-relevant
     choice an administrator must be able to reconstruct later. *)
  if Grid_obs.Obs.enabled obs then
    Grid_obs.Event.subscribe (Grid_obs.Obs.events obs) (fun e ->
        if String.equal e.Grid_obs.Event.kind "authz.degraded" then
          let attr name =
            Option.value ~default:"?"
              (List.assoc_opt name e.Grid_obs.Event.attrs)
          in
          Grid_audit.Audit.log audit ~at:e.Grid_obs.Event.at
            ~kind:Grid_audit.Audit.Authorization
            ?policy_epoch:(Option.map (fun epoch -> epoch ()) policy_epoch)
            ?corr_id:e.Grid_obs.Event.corr
            ~outcome:
              (Grid_audit.Audit.Failure
                 (Printf.sprintf "authorization degraded (%s)" (attr "mode")))
            (Printf.sprintf "backend outage: %s -> %s under %s" (attr "original")
               (attr "final") (attr "mode")));
  (match store with
  | None -> ()
  | Some store ->
    Grid_store.Store.set_snapshot_source store (snapshot_entries t.entries);
    (* One listener journals every tracked job's terminal transition —
       the record a restarted job manager needs to explain history, even
       though the surviving LRM stays authoritative for current state. *)
    Grid_lrm.Lrm.on_event lrm (fun (Grid_lrm.Lrm.State_changed { job; _ }) ->
        match Hashtbl.find_opt t.lrm_contacts job.Grid_lrm.Lrm.id with
        | None -> ()
        | Some contact -> begin
          match job.Grid_lrm.Lrm.state with
          | Grid_lrm.Lrm.Completed | Grid_lrm.Lrm.Cancelled | Grid_lrm.Lrm.Killed _ ->
            Hashtbl.remove t.lrm_contacts job.Grid_lrm.Lrm.id;
            let state = Grid_lrm.Lrm.state_to_string job.Grid_lrm.Lrm.state in
            record_event t
              (Persist.Job_state
                 { contact; state; at = Grid_sim.Engine.now engine });
            Grid_obs.Obs.emit obs ~layer:"gram" "job.terminal"
              [ ("contact", contact); ("state", state); ("resource", name) ]
          | Grid_lrm.Lrm.Pending | Grid_lrm.Lrm.Running | Grid_lrm.Lrm.Suspended -> ()
        end));
  t

let name t = t.name
let engine t = t.engine
let network t = t.network
let lrm t = t.lrm
let audit t = t.audit
let trace t = t.trace
let obs t = t.obs
let authz_cache t = t.authz_cache
let store t = t.store

let now t = Grid_sim.Engine.now t.engine

let current_epoch t = Option.map (fun epoch -> epoch ()) t.policy_epoch

let epoch_attr t =
  match current_epoch t with
  | None -> []
  | Some e -> [ ("epoch", string_of_int e) ]

let find_jmi t contact = Hashtbl.find_opt t.jmis contact

let jobs t = Hashtbl.fold (fun _ jmi acc -> jmi :: acc) t.jmis []

(* GT2's callback contact: the client registers a listener and the Job
   Manager sends job state updates over the network as they happen. Only
   transitions after registration are delivered — the submit reply
   already tells the client the initial state. *)
let register_callback t ~contact ~(on_state_change : Protocol.job_state -> unit) =
  match find_jmi t contact with
  | None -> Error (Protocol.Unknown_job contact)
  | Some jmi -> begin
    match Job_manager.lrm_job_id jmi with
    | None -> Error (Protocol.Invalid_request "job was never started")
    | Some lrm_id ->
      Grid_lrm.Lrm.watch t.lrm lrm_id (fun (Grid_lrm.Lrm.State_changed { job; _ }) ->
          let state = Protocol.job_state_of_lrm job.Grid_lrm.Lrm.state in
          Grid_sim.Network.send ~link:"resource->client" t.network (fun () ->
              on_state_change state));
      Ok ()
  end

(* --- Direct (in-resource) entry points -------------------------------- *)

let new_challenge t = Gatekeeper.new_challenge t.gatekeeper

let submit_direct t ~credential ~rsl =
  (* Everything this submission causes — authentication, the callout
     decision, job creation, the LRM hand-off — shares one correlation
     id, minted here unless the networked wrapper already supplied it. *)
  Grid_obs.Obs.ensure_correlation t.obs (fun () ->
      match Gatekeeper.handle_submit t.gatekeeper ~credential ~rsl with
      | Error _ as e -> e
      | Ok (jmi, reply) ->
        let contact = Job_manager.contact jmi in
        Hashtbl.replace t.jmis contact jmi;
        let durable = Option.is_some t.store in
        if durable then begin
          let job = Job_manager.job jmi in
          let entry =
            { Persist.contact;
              owner = Job_manager.owner jmi;
              account = Job_manager.account jmi;
              jobtag = Job_manager.jobtag jmi;
              rsl = Grid_rsl.Job.to_string job;
              rsl_fingerprint = Persist.fingerprint job;
              policy_epoch = current_epoch t;
              limits = Job_manager.limits jmi;
              lrm_job = Job_manager.lrm_job_id jmi;
              created_at = now t }
          in
          Hashtbl.replace t.entries contact entry;
          Option.iter
            (fun lrm_id -> Hashtbl.replace t.lrm_contacts lrm_id contact)
            entry.Persist.lrm_job;
          record_event t (Persist.Job_created entry)
        end;
        Grid_obs.Obs.emit t.obs ~layer:"gram" "job.created"
          ([ ("contact", contact);
             ("owner", Grid_gsi.Dn.to_string (Job_manager.owner jmi));
             ("durable", string_of_bool durable);
             ("resource", t.name) ]
          @ epoch_attr t);
        Ok reply)

(* The JMI "accepts, authenticates and authorizes management requests"
   (Section 4.2). Admission resolves the contact and, when a credential
   accompanies the request, validates it (chain, expiry, revocation,
   challenge freshness) and checks that it asserts the claimed requester
   identity. A credential-less call is reserved for in-process trusted
   callers (tests, monitoring). *)
let admit t ~requester ~credential ~contact =
  match find_jmi t contact with
  | None -> Error (Protocol.Unknown_job contact)
  | Some jmi -> begin
    match credential with
    | None -> Ok jmi
    | Some credential -> begin
      match Gatekeeper.authenticate t.gatekeeper credential with
      | Error e ->
        Error
          (Protocol.Management_authentication_failed (Grid_gsi.Authn.error_to_string e))
      | Ok ctx ->
        if not (Grid_gsi.Dn.equal ctx.Grid_gsi.Authn.peer requester) then
          Error
            (Protocol.Management_authentication_failed
               (Printf.sprintf "credential authenticates %s, request claims %s"
                  (Grid_gsi.Dn.to_string ctx.Grid_gsi.Authn.peer)
                  (Grid_gsi.Dn.to_string requester)))
        else Ok jmi
    end
  end

(* State-changing management outcomes are part of the job's durable
   history (who cancelled/signalled, and whether policy allowed it);
   status reads are not journalled. *)
let journal_management t ~requester ~contact action result =
  match action with
  | Protocol.Cancel | Protocol.Signal _ ->
    if Option.is_some t.store && Hashtbl.mem t.jmis contact then
      record_event t
        (Persist.Management
           { contact;
             requester;
             action = Protocol.management_action_to_string action;
             outcome =
               (match result with
               | Ok _ -> "ok"
               | Error (Protocol.Not_authorized _) -> "denied"
               | Error _ -> "error");
             at = now t })
  | Protocol.Status -> ()

(* One element of a management batch: the inputs of one management
   request, as data. *)
type manage_request = {
  requester : Grid_gsi.Dn.t;
  credential : Grid_gsi.Credential.t option;
  contact : string;
  action : Protocol.management_action;
}

(* The management entry point; a single request is a batch of one.
   Admit every request first, then authorize-and-perform all surviving
   requests through [Job_manager.manage_many] — one callout batch for
   the whole tick in extended mode. Admission refusals answer in place
   without consuming a callout, and journalling is the same as one by
   one. Results preserve request order. *)
let manage_many_direct t (requests : manage_request array) :
    (Protocol.management_reply, Protocol.management_error) result array =
  Grid_obs.Obs.ensure_correlation t.obs (fun () ->
      let n = Array.length requests in
      let results = Array.make n (Error (Protocol.Invalid_request "unanswered")) in
      let ready = ref [] in
      for i = 0 to n - 1 do
        let r = requests.(i) in
        match
          admit t ~requester:r.requester ~credential:r.credential ~contact:r.contact
        with
        | Error e -> results.(i) <- Error e
        | Ok jmi -> ready := (i, jmi) :: !ready
      done;
      let ready = Array.of_list (List.rev !ready) in
      let items =
        Array.map
          (fun (i, jmi) ->
            let r = requests.(i) in
            (jmi, r.requester, r.credential, r.action))
          ready
      in
      let replies = Job_manager.manage_many items in
      Array.iteri (fun k (i, _) -> results.(i) <- replies.(k)) ready;
      Array.iteri
        (fun i r ->
          journal_management t ~requester:r.requester ~contact:r.contact r.action
            results.(i))
        requests;
      results)

let manage_direct t ~requester ?credential ~contact action =
  (manage_many_direct t [| { requester; credential; contact; action } |]).(0)

(* --- Crash and recovery ------------------------------------------------ *)

(* Kill the job manager process: every in-memory JMI is lost, and the
   store's unsynced tail is lost or torn per the disk's fault profile.
   The LRM is a separate process (the batch system) and survives, as do
   already-registered allocation-settlement listeners — exactly GT2's
   job-manager-restart situation. *)
let crash t =
  let lost = Hashtbl.length t.jmis in
  Hashtbl.reset t.jmis;
  Hashtbl.reset t.entries;
  Hashtbl.reset t.lrm_contacts;
  Option.iter Grid_store.Store.crash t.store;
  Grid_sim.Trace.record t.trace ~at:(now t) ~source:t.name ~target:t.name
    "job manager crashed";
  if Grid_obs.Obs.enabled t.obs then
    Grid_obs.Obs.incr t.obs ~labels:[ ("resource", t.name) ] "resource_crashes_total";
  Grid_obs.Obs.emit t.obs ~layer:"resource" "resource.crashed"
    ([ ("lost", string_of_int lost); ("resource", t.name) ] @ epoch_attr t);
  Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Recovery
    ?policy_epoch:(current_epoch t)
    ?corr_id:(Grid_obs.Obs.correlation t.obs)
    ~outcome:(Grid_audit.Audit.Failure (Printf.sprintf "%d in-memory JMIs lost" lost))
    "job manager crashed"

type recovery_summary = {
  jobs_restored : int;
  records_replayed : int;
  dropped_bytes : int;
  stale_epoch_jobs : int;
  decode_failures : int;
  duration : float;
}

let recover t =
  match t.store with
  | None ->
    { jobs_restored = 0;
      records_replayed = 0;
      dropped_bytes = 0;
      stale_epoch_jobs = 0;
      decode_failures = 0;
      duration = 0.0 }
  | Some store ->
    let started = Sys.time () in
    let replayed = Grid_store.Store.recover store in
    let { Persist.entries; events; decode_failures } =
      Persist.rebuild ~snapshot:replayed.Grid_store.Store.snapshot_records
        ~journal:replayed.Grid_store.Store.journal_records
    in
    let current_epoch = Option.map (fun epoch -> epoch ()) t.policy_epoch in
    let stale = ref 0 in
    let restored = ref 0 in
    let failures = ref decode_failures in
    List.iter
      (fun (e : Persist.job_entry) ->
        match Grid_rsl.Job.of_string e.Persist.rsl with
        | Error _ -> incr failures
        | Ok job ->
          let jmi =
            Job_manager.restore ~obs:t.obs ~contact:e.Persist.contact
              ~owner:e.Persist.owner ~account:e.Persist.account ~limits:e.Persist.limits
              ~job ~mode:t.mode ~lrm:t.lrm ~engine:t.engine ~audit:t.audit ~trace:t.trace
              ~lrm_job:e.Persist.lrm_job ()
          in
          Hashtbl.replace t.jmis e.Persist.contact jmi;
          Hashtbl.replace t.entries e.Persist.contact e;
          Option.iter
            (fun lrm_id -> Hashtbl.replace t.lrm_contacts lrm_id e.Persist.contact)
            e.Persist.lrm_job;
          incr restored;
          Grid_obs.Obs.emit t.obs ~layer:"resource" "job.restored"
            [ ("contact", e.Persist.contact);
              ("resource", t.name);
              ("admitted_epoch",
               match e.Persist.policy_epoch with
               | Some ep -> string_of_int ep
               | None -> "?") ];
          match (current_epoch, e.Persist.policy_epoch) with
          | Some now_epoch, Some then_epoch when now_epoch <> then_epoch -> incr stale
          | _ -> ())
      entries;
    (* Policy may have been reloaded while the job manager was down:
       decisions memoized before the crash must not answer for the new
       epoch, so the cache is flushed unconditionally and stale-epoch
       admissions are surfaced for re-validation through the callout. *)
    Option.iter Grid_callout.Cache.invalidate t.authz_cache;
    let duration = Sys.time () -. started in
    if Grid_obs.Obs.enabled t.obs then begin
      Grid_obs.Obs.incr t.obs ~labels:[ ("resource", t.name) ] "resource_recoveries_total";
      Grid_obs.Obs.incr t.obs ~by:(float_of_int !stale)
        ~labels:[ ("resource", t.name) ]
        "recovery_epoch_mismatches_total";
      Grid_obs.Obs.observe t.obs "recovery_duration_seconds" duration
    end;
    Grid_sim.Trace.record t.trace ~at:(now t) ~source:t.name ~target:t.name
      "job manager recovered";
    Grid_obs.Obs.emit t.obs ~layer:"resource" "resource.recovered"
      ([ ("restored", string_of_int !restored);
         ("resource", t.name);
         ("replayed", string_of_int events);
         ("dropped_bytes",
          string_of_int replayed.Grid_store.Store.dropped_bytes);
         ("decode_failures", string_of_int !failures);
         ("stale", string_of_int !stale) ]
      @ epoch_attr t);
    Grid_audit.Audit.log t.audit ~at:(now t) ~kind:Grid_audit.Audit.Recovery
      ?policy_epoch:current_epoch
      ?corr_id:(Grid_obs.Obs.correlation t.obs)
      ~outcome:Grid_audit.Audit.Success
      (Printf.sprintf
         "replayed %d records (%d snapshot, %d journal), restored %d jobs%s%s" events
         (List.length replayed.Grid_store.Store.snapshot_records)
         (List.length replayed.Grid_store.Store.journal_records)
         !restored
         (if replayed.Grid_store.Store.dropped_bytes > 0 then
            Printf.sprintf ", dropped %d corrupt tail bytes"
              replayed.Grid_store.Store.dropped_bytes
          else "")
         (if !stale > 0 then
            Printf.sprintf ", %d jobs admitted under a stale policy epoch" !stale
          else ""));
    { jobs_restored = !restored;
      records_replayed = events;
      dropped_bytes = replayed.Grid_store.Store.dropped_bytes;
      stale_epoch_jobs = !stale;
      decode_failures = !failures;
      duration }

(* --- Networked entry points ------------------------------------------- *)

(* Each networked request carries a detached "gram.request" span covering
   the full round trip (request hop, resource-side processing, reply
   hop) — the only stage with nonzero simulated latency, since everything
   inside the resource happens within one simulation event. The
   resource-side work runs under [in_scope] so its spans nest beneath the
   request. *)
let request_span t ~kind =
  if Grid_obs.Obs.enabled t.obs then begin
    Grid_obs.Obs.incr t.obs
      ~labels:[ ("kind", kind); ("resource", t.name) ]
      "gram_requests_total";
    Grid_obs.Obs.start_span t.obs ~attrs:[ ("kind", kind) ] "gram.request"
  end
  else Grid_obs.Span.null

(* A request settles exactly once: either the reply hop delivers a result
   or the timeout fires, and whichever comes second is discarded (a late
   reply after a timeout models a stale datagram; a duplicate reply is
   absorbed the same way). This is what guarantees "no hangs, no double
   replies" under fault injection. *)
let settle_guard t ~kind ~span reply =
  let settled = ref false in
  fun ~timed_out result ->
    if not !settled then begin
      settled := true;
      if timed_out && Grid_obs.Obs.enabled t.obs then begin
        Grid_obs.Span.set_attr span "outcome" "timeout";
        Grid_obs.Obs.incr t.obs
          ~labels:[ ("kind", kind); ("resource", t.name) ]
          "gram_request_timeouts_total"
      end;
      Grid_obs.Obs.finish_span t.obs span;
      reply result
    end

let arm_timeout t ~timeout ~settle timeout_error =
  match timeout with
  | None -> ()
  | Some budget ->
    if budget <= 0.0 then
      settle ~timed_out:true
        (Error (timeout_error "request deadline already expired"))
    else
      Grid_sim.Engine.schedule_after t.engine budget (fun () ->
          settle ~timed_out:true
            (Error (timeout_error (Printf.sprintf "no reply within %gs" budget))))

let effective_timeout t timeout =
  match timeout with Some _ as s -> s | None -> t.request_timeout

(* Each networked request mints the correlation id at the client edge, so
   the request event, every resource-side event its processing causes
   (the delivery continuation re-establishes the id — the ambient stack
   does not survive the scheduling gap), the reply and even a timeout all
   share one chain. *)
let submit t ~credential ~rsl ~reply =
  Grid_sim.Trace.record t.trace ~at:(now t) ~source:"client"
    ~target:(t.name ^ ":gatekeeper") "job request + credentials";
  let corr = Grid_obs.Obs.fresh_correlation t.obs in
  Grid_obs.Obs.emit t.obs ~corr ~layer:"gram" "gram.request" [ ("kind", "submit") ];
  let span = request_span t ~kind:"submit" in
  let settle = settle_guard t ~kind:"submit" ~span reply in
  let settle ~timed_out result =
    if timed_out then
      Grid_obs.Obs.emit t.obs ~corr ~layer:"gram" "gram.timeout"
        [ ("kind", "submit") ];
    settle ~timed_out result
  in
  arm_timeout t ~timeout:t.request_timeout ~settle (fun m -> Protocol.Request_timeout m);
  Grid_sim.Network.send ~link:"client->resource" t.network (fun () ->
      Grid_obs.Obs.with_correlation t.obs ~corr (fun () ->
          let result =
            Grid_obs.Obs.in_scope t.obs span (fun () -> submit_direct t ~credential ~rsl)
          in
          (match result with
          | Ok r ->
            Grid_sim.Trace.record t.trace ~at:(now t)
              ~source:("jmi:" ^ r.Protocol.job_contact) ~target:"client" "job contact"
          | Error _ ->
            Grid_sim.Trace.record t.trace ~at:(now t) ~source:(t.name ^ ":gatekeeper")
              ~target:"client" "submission error");
          Grid_obs.Obs.emit t.obs ~layer:"gram" "gram.reply"
            [ ("kind", "submit");
              ("outcome", match result with Ok _ -> "ok" | Error _ -> "error") ];
          Grid_sim.Network.send ~link:"resource->client" t.network (fun () ->
              settle ~timed_out:false result)))

let manage ?timeout t ~requester ?credential ~contact action ~reply =
  Grid_sim.Trace.record t.trace ~at:(now t) ~source:"client" ~target:("jmi:" ^ contact)
    (Protocol.management_action_to_string action);
  let corr = Grid_obs.Obs.fresh_correlation t.obs in
  Grid_obs.Obs.emit t.obs ~corr ~layer:"gram" "gram.request"
    [ ("kind", "manage");
      ("action", Protocol.management_action_to_string action);
      ("contact", contact) ];
  let span = request_span t ~kind:"manage" in
  let settle = settle_guard t ~kind:"manage" ~span reply in
  let settle ~timed_out result =
    if timed_out then
      Grid_obs.Obs.emit t.obs ~corr ~layer:"gram" "gram.timeout"
        [ ("kind", "manage"); ("contact", contact) ];
    settle ~timed_out result
  in
  arm_timeout t ~timeout:(effective_timeout t timeout) ~settle (fun m ->
      Protocol.Request_timed_out m);
  Grid_sim.Network.send ~link:"client->resource" t.network (fun () ->
      Grid_obs.Obs.with_correlation t.obs ~corr (fun () ->
          let result =
            Grid_obs.Obs.in_scope t.obs span (fun () ->
                manage_direct t ~requester ?credential ~contact action)
          in
          Grid_obs.Obs.emit t.obs ~layer:"gram" "gram.reply"
            [ ("kind", "manage");
              ("outcome", match result with Ok _ -> "ok" | Error _ -> "error") ];
          Grid_sim.Network.send ~link:"resource->client" t.network (fun () ->
              settle ~timed_out:false result)))
