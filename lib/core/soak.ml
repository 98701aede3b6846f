(* Multi-day soak campaigns under chaos, watched by the safety monitor.

   A campaign drives the fusion testbed through several simulated days of
   realistic operational churn — credential expiry and renewal, a CRL
   revocation mid-flight, VO/policy reloads that bump the policy epoch,
   job-manager crashes during submission bursts, and network/disk fault
   injection — while the online safety monitor ([Grid_obs.Monitor])
   checks every wide event against the paper's enforcement invariants.

   The campaign driver owns what the monitor deliberately does not: the
   policy. It keeps a history of (epoch, policy sources) snapshots and
   injects an oracle that re-derives the flat-file PEP's answer for the
   epoch stamped on each decision event, so buffered events that flush
   after a churn are still judged against the policy they were actually
   decided under.

   [--inject-violation] is the monitor's self-test: each violation class
   can be provoked on demand — default-deny by really mis-wiring the
   callout (one denial is flipped to a permit mid-campaign, under the
   real request's correlation id), the other four by synthesizing event
   chains the instrumentation would emit if the corresponding bug
   existed. A campaign that cannot detect its own injected violations
   proves nothing about a clean run. *)

type fault_level =
  | No_faults
  | Light
  | Heavy

type pep_backend =
  | Flat_file_pep
  | Rebac_pep

type config = {
  days : float;                (* campaign length in simulated days *)
  jobs_per_day : int;          (* baseline Poisson arrival volume *)
  seed : int;                  (* drives arrivals, faults and choices *)
  faults : fault_level;        (* network (and, when heavy, disk) chaos *)
  monitor : bool;              (* false: measure the monitor's absence *)
  inject : Grid_obs.Monitor.violation_class option;
  propagation_window : float;  (* revocation grace period, seconds *)
  pep : pep_backend;           (* which PEP answers the callouts *)
  batch : int;                 (* 1 = per-request management over the wire;
                                  N > 1 coalesces follow-ups and authorizes
                                  them through the batch decision pipeline *)
  resources : int;             (* 1 = the original single-site campaign;
                                  N > 1 federates N members behind an MDS
                                  directory and broker, with staggered
                                  reloads and rotating crash targets *)
  tokens : Grid_sts.Validator.mode option;
                               (* None = the original proxy-path campaign.
                                  Some mode routes every request through
                                  STS tokens: proxies carry a token
                                  extension, a per-member token-validating
                                  PEP gates the callout, renewal becomes
                                  refresh-before-expiry against the STS
                                  escrow, and the mid-campaign revocation
                                  lands at the STS (distributed per the
                                  mode) instead of the CA trust store. *)
}

let default_config =
  { days = 3.0;
    jobs_per_day = 400;
    seed = 42;
    faults = Light;
    monitor = true;
    inject = None;
    propagation_window = 300.0;
    pep = Flat_file_pep;
    batch = 1;
    resources = 1;
    tokens = None }

type report = {
  submitted : int;
  accepted : int;
  denied : int;          (* authorization / authentication refusals *)
  failed : int;          (* other errors: RSL, mapping, system *)
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

(* --- Fault profiles (mirroring gridctl's named levels) ----------------- *)

let network_faults = function
  | No_faults -> None
  | Light ->
    Some
      (Grid_sim.Network.Faults.profile ~drop:0.01 ~duplicate:0.005
         ~delay_probability:0.05 ~max_extra_delay:0.02 ())
  | Heavy ->
    Some
      (Grid_sim.Network.Faults.profile ~drop:0.05 ~duplicate:0.02
         ~delay_probability:0.2 ~max_extra_delay:0.1 ())

let disk_faults = function
  | No_faults | Light -> None
  | Heavy ->
    Some
      (Grid_sim.Disk.Faults.profile ~torn_write:0.3 ~fsync_latency:0.002
         ~fsync_jitter:0.003 ())

(* --- The policy oracle -------------------------------------------------- *)

(* Rebuild a policy request from a decision event's attributes. The
   attrs carry everything [Callout.to_policy_request] would have seen. *)
let request_of_event (e : Grid_obs.Event.t) : Grid_policy.Types.request option =
  let attr = Grid_obs.Event.attr e in
  try
    match (attr "subject", Option.bind (attr "action") Grid_policy.Types.Action.of_string) with
    | Some subject, Some action ->
      Some
        { Grid_policy.Types.subject = Grid_gsi.Dn.parse subject;
          action;
          job = Option.map Grid_rsl.Parser.parse_clause_exn (attr "rsl");
          jobowner = Option.map Grid_gsi.Dn.parse (attr "jobowner");
          jobtag = attr "jobtag" }
    | _ -> None
  with _ -> None

(* The campaign's policy history: for each epoch a PEP announced, a
   closure re-deriving the policy answer from the engine that was live
   at that epoch. Flat-file epochs re-evaluate the sources through the
   uncompiled reference evaluator, so the oracle shares no index with
   the PEP it judges; ReBAC epochs re-expand the tuple graph of the plan
   compiled at the reload. Either way a
   decision event that flushes after a churn is judged against the
   policy it was actually decided under, not today's. *)
type answerer = Grid_policy.Types.request -> bool option

let flat_file_answerer sources : answerer =
 fun request -> Some (Grid_policy.Combine.is_permit (Grid_policy.Combine.evaluate sources request))

let rebac_answerer sources : answerer =
  let plan = Grid_rebac.Compile.of_sources sources in
  let store = Grid_rebac.Compile.load plan in
  fun request ->
    match Grid_rebac.Compile.decide plan store request with
    | Ok decision -> Some (Grid_policy.Combine.is_permit decision)
    | Error _ -> None (* expansion failure: indeterminate, not a verdict *)

(* One oracle body shared by every backend; [Monitor.oracle_for_backend]
   scopes it to the decision events the campaign's PEP actually stamps.
   Verdicts are memoized on the raw (epoch, request attrs) — the policy
   at a given epoch is an immutable snapshot, so a repeated question has
   a fixed answer and the workload's few templates repeat constantly. *)
let make_oracle (history : (int * answerer) list ref) : Grid_obs.Monitor.oracle =
  let memo : (string, bool option) Hashtbl.t = Hashtbl.create 4096 in
  fun (e : Grid_obs.Event.t) ->
    match Grid_obs.Event.attr_int e "epoch" with
    | None -> None
    | Some epoch ->
      let field k = Option.value ~default:"" (Grid_obs.Event.attr e k) in
      let key =
        String.concat "\x00"
          [ string_of_int epoch; field "subject"; field "action"; field "rsl";
            field "jobowner"; field "jobtag" ]
      in
      (match Hashtbl.find_opt memo key with
      | Some verdict -> verdict
      | None -> begin
        match List.assoc_opt epoch !history with
        | None -> None (* not memoized: the epoch may land in history later *)
        | Some answer ->
          let verdict = Option.bind (request_of_event e) answer in
          Hashtbl.add memo key verdict;
          verdict
      end)

(* The composite the monitor gets: the same history-backed oracle, once
   per backend label a PEP in this campaign can stamp on decisions. *)
let campaign_oracle history : Grid_obs.Monitor.oracle =
  let oracle = make_oracle history in
  Grid_obs.Monitor.any_oracle
    [ Grid_obs.Monitor.oracle_for_backend "flat_file" oracle;
      Grid_obs.Monitor.oracle_for_backend "rebac" oracle ]

(* --- The campaign ------------------------------------------------------- *)

let mallory = Fusion_world.organization ^ "/CN=Mallory Mallone"

let gridmap_text =
  Fusion_world.gridmap_text ^ Printf.sprintf "%S mallory\n" mallory

type user_cell = {
  dn : string;
  base : Grid_gsi.Identity.t;
  mutable proxy : Grid_gsi.Identity.t;
  weight : int;
  templates : string list;
}

let run (config : config) : report =
  if config.days <= 0.0 then invalid_arg "Soak.run: days must be positive";
  if config.jobs_per_day <= 0 then invalid_arg "Soak.run: jobs_per_day must be positive";
  if config.batch < 1 then invalid_arg "Soak.run: batch must be >= 1";
  if config.resources < 1 then invalid_arg "Soak.run: resources must be >= 1";
  let total = Grid_sim.Clock.days config.days in
  Grid_util.Ids.reset ();
  let engine = Grid_sim.Engine.create () in
  (* Long-lived CA and end-entity certs spanning the whole campaign; only
     the 12-hour proxies expire and are renewed — the operational shape
     the expired-credential invariant is about. *)
  let ca =
    Grid_gsi.Ca.create
      ~lifetime:(total +. Grid_sim.Clock.days 7.0)
      ~default_identity_lifetime:(total +. Grid_sim.Clock.days 1.0)
      ~now:(Grid_sim.Engine.now engine) "/O=Grid/CN=Soak CA"
  in
  let trust = Grid_gsi.Ca.Trust_store.create () in
  Grid_gsi.Ca.Trust_store.add trust (Grid_gsi.Ca.certificate ca);
  let obs = Grid_obs.Obs.of_engine engine in
  let rng = Grid_util.Rng.create ~seed:config.seed in

  (* The STS, when the campaign runs tokenized. One default permissive
     relation: the policy engine stays the sole denier, which is what
     makes token-world decisions differentially comparable to the proxy
     path. *)
  let sts =
    Option.map
      (fun mode ->
        Grid_sts.Service.create ~name:"soak-sts" ~mode ~engine ~trust ~obs ())
      config.tokens
  in

  (* Policy history for the oracle; the monitor subscribes before the PEP
     exists so it also sees the create-epoch event. The grace period it
     grants revocations must cover the token layer's own enforcement
     bound — in short-TTL mode a pre-revocation token is legitimately
     accepted until it expires, so judging it against a tighter window
     would manufacture violations out of correct behaviour. *)
  let monitor_window =
    match sts with
    | None -> config.propagation_window
    | Some s ->
      Float.max config.propagation_window (Grid_sts.Service.propagation_window s)
  in
  let history : (int * answerer) list ref = ref [] in
  let monitor =
    if config.monitor then
      Some
        (Grid_obs.Monitor.create ~oracle:(campaign_oracle history)
           ~propagation_window:monitor_window
           (Grid_obs.Obs.events obs))
    else None
  in

  let vo = Fusion_world.build_vo () in
  Grid_vo.Vo.add_member vo ~dn:mallory ~groups:[ "analysts" ];
  let sources () = Fusion_world.policy_sources vo in
  let initial_sources = sources () in
  (* The oracle side of the configured PEP: [answerer_for] snapshots the
     sources into a closure the monitor can re-derive answers from. *)
  let answerer_for =
    match config.pep with
    | Flat_file_pep -> flat_file_answerer
    | Rebac_pep -> rebac_answerer
  in

  (* Default-deny mis-wiring: while armed, the next Denied answer from a
     real PEP is flipped to a permit — under the live request's
     correlation id, exactly the bug class the monitor must catch. *)
  let flip_next_denial = ref false in
  let request_timeout =
    match config.faults with No_faults -> None | Light | Heavy -> Some 0.25
  in
  (* One federation member. Member 0 reproduces the original single-site
     campaign byte for byte (same name and fault-stream seeds); further
     members get their own names and decorrelated seed offsets. Every
     member owns a full stack — PEP (independent epoch), cache, store on
     its own disk, faulty network — and registers its create-epoch in
     the oracle history. *)
  let make_member i =
    let name = if i = 0 then "soak-site" else Printf.sprintf "soak-site-%d" i in
    (* Multi-member runs scope each member's emission stream with its
       resource name so the monitor judges epoch freshness per member;
       single-member runs keep the unscoped stream (and its event
       shapes) byte-for-byte as before. *)
    let obs =
      if config.resources = 1 then obs
      else Grid_obs.Obs.scoped obs [ ("resource", name) ]
    in
    let pep = Site.pep ~obs ~rebac:(config.pep = Rebac_pep) initial_sources in
    history := (pep.epoch (), answerer_for initial_sources) :: !history;
    let callout q =
      match Grid_callout.Callout.Batch.check pep.authorization q with
      | Error (Grid_callout.Callout.Denied _) when !flip_next_denial ->
        flip_next_denial := false;
        Ok ()
      | decision -> decision
    in
    let network =
      Grid_sim.Network.create ?faults:(network_faults config.faults)
        ~fault_seed:(config.seed + 17 + (31 * i)) engine
    in
    let disk =
      Grid_sim.Disk.create ?faults:(disk_faults config.faults)
        ~seed:(config.seed + 29 + (101 * i)) ()
    in
    let store = Grid_store.Store.create ~obs ~snapshot_every:64 ~disk ~name () in
    (* Single-lane mode: the flip gate wraps the PEP's single lane, so a
       batch is answered one query at a time through it (inside the token
       gate, when there is one). *)
    let site =
      Site.resource ~nodes:8 ~cpus_per_node:8
        ~gridmap:(Grid_gsi.Gridmap.parse gridmap_text)
        ~network ?request_timeout ~authz_cache:2048 ~store ?sts ~pep
        ~mode:(Grid_gram.Mode.extended ~backend:pep.backend callout)
        ~name ~engine ~trust ~obs ()
    in
    (site.resource, pep)
  in
  let members = Array.init config.resources make_member in
  let member_resources = Array.map fst members in
  let resource = member_resources.(0) in
  let epoch = (snd members.(0)).Site.epoch in
  let epoch0 = epoch () in
  (* Federation plumbing only past one member: each resource publishes
     into a shared directory, and arrivals place through the broker's
     pure ranked selection (capacity-aware, seeded tie-break, breakers
     fed from submission outcomes). *)
  let providers, broker =
    if config.resources = 1 then ([], None)
    else begin
      let directory = Grid_mds.Directory.create engine in
      let providers =
        Array.to_list
          (Array.map
             (fun r ->
               Grid_mds.Provider.attach ~site:(Grid_gram.Resource.name r) ~directory r)
             member_resources)
      in
      let broker =
        Grid_mds.Broker.create ~seed:config.seed ~obs ~directory
          (Array.to_list member_resources)
      in
      (providers, Some broker)
    end
  in
  let round_robin = ref 0 in
  let pick_resource rsl =
    match broker with
    | None -> resource
    | Some b -> begin
      match Grid_rsl.Job.of_string rsl with
      | Error _ -> resource
      | Ok job -> begin
        match Grid_mds.Broker.select b ~job with
        | r :: _ -> r
        | [] ->
          (* All stale or breaker-open: rotate rather than pile onto one
             member — the arrival still happens, the directory recovers. *)
          incr round_robin;
          member_resources.(!round_robin mod config.resources)
      end
    end
  in

  (* Users: the fusion cast plus a revocable analyst and an outsider whose
     refusals are ordinary traffic, not violations. Each acts through a
     12-hour proxy renewed every ~10 hours. *)
  let tokenized_proxy base =
    match sts with
    | None -> Grid_gsi.Identity.delegate base ~now:(Grid_sim.Engine.now engine)
    | Some s -> begin
      match
        Grid_sts.Service.proxy_with_token s ~now:(Grid_sim.Engine.now engine) base
      with
      | Ok (proxy, _token) -> proxy
      | Error e ->
        invalid_arg
          ("Soak: initial token exchange refused: "
          ^ Grid_sts.Service.exchange_error_to_string e)
    end
  in
  let make_cell dn weight templates =
    let base = Grid_gsi.Identity.create ~ca ~now:(Grid_sim.Engine.now engine) dn in
    { dn; base; proxy = tokenized_proxy base; weight; templates }
  in
  let durations = [ "60"; "180"; "600"; "2400" ] in
  let with_duration template =
    Printf.sprintf "%s(simduration=%s)" template (Grid_util.Rng.pick rng durations)
  in
  let users =
    [ make_cell Fusion_world.bo_liu 3
        [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)";
          "&(executable=compiler)(directory=/sandbox/test)(jobtag=ADS)" ];
      make_cell Fusion_world.kate_keahey 2
        [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)" ];
      make_cell Fusion_world.admin 1
        [ "&(executable=demo)(directory=/sandbox/test)(jobtag=DEMO)" ];
      make_cell mallory 1
        [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)" ];
      make_cell Fusion_world.outsider 1
        [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)" ] ]
  in
  let kate = List.nth users 1 in

  let renewals = ref 0 in
  let revocations = ref 0 in
  let reloads = ref 0 in
  let crashes = ref 0 in
  let restored = ref 0 in
  let submitted = ref 0 in
  let accepted = ref 0 in
  let denied = ref 0 in
  let failed = ref 0 in
  let timed_out = ref 0 in
  let management = ref 0 in
  let management_denied = ref 0 in

  (* Batched management ([config.batch > 1]): follow-ups accumulate here
     (newest first, as (manager, owning resource, contact, action)) and
     flush through [Resource.manage_many_direct] — grouped by owning
     member, one authorization batch per group. Credentials are minted
     at flush time, one fresh challenge per request against the owning
     member, exactly as the per-request path does at send time.
     [batch = 1] keeps the original wire path. *)
  let pending :
      (user_cell * Grid_gram.Resource.t * string * Grid_gram.Protocol.management_action)
      list
      ref =
    ref []
  in
  let pending_count = ref 0 in
  let flush_pending () =
    if !pending_count > 0 then begin
      let items = List.rev !pending in
      pending := [];
      pending_count := 0;
      Array.iter
        (fun target ->
          let mine = List.filter (fun (_, r, _, _) -> r == target) items in
          if mine <> [] then begin
            let requests =
              Array.of_list
                (List.map
                   (fun (manager, _, contact, action) ->
                     { Grid_gram.Resource.requester =
                         Grid_gsi.Identity.effective_subject manager.proxy;
                       credential =
                         Some
                           (Grid_gsi.Credential.of_identity manager.proxy
                              ~challenge:(Grid_gram.Resource.new_challenge target));
                       contact;
                       action })
                   mine)
            in
            Array.iter
              (function
                | Ok _ -> ()
                | Error _ -> incr management_denied)
              (Grid_gram.Resource.manage_many_direct target requests)
          end)
        member_resources
    end
  in

  (* Every user escrows its identity with the STS, so the token-mode
     renewal rhythm is refresh-before-expiry rather than re-delegation. *)
  Option.iter
    (fun s ->
      List.iter
        (fun cell ->
          ignore
            (Grid_sts.Service.deposit s ~identity:cell.base
               ~authorized_renewers:[ Grid_gsi.Identity.subject cell.base ]
               ~now:(Grid_sim.Engine.now engine) ()))
        users)
    sts;

  (* Proxy renewal: every 10 simulated hours, each user re-delegates a
     fresh 12-hour proxy — the operational rhythm that keeps credential
     expiry from ever authorizing anything. Token mode runs on the
     token's clock instead: refresh-before-expiry at 80% of the TTL,
     through the escrow, so a revoked subject's refresh is refused and
     its proxy simply ages out with the last token. *)
  let renewal_period =
    match sts with
    | None -> Grid_sim.Clock.hours 10.0
    | Some s -> 0.8 *. Grid_sts.Service.default_ttl s
  in
  let renew_cell cell =
    match sts with
    | None ->
      cell.proxy <-
        Grid_gsi.Identity.delegate cell.base ~now:(Grid_sim.Engine.now engine);
      incr renewals;
      Grid_obs.Obs.emit obs ~layer:"gsi" "credential.renewed"
        [ ("subject", cell.dn) ]
    | Some s -> begin
      let now = Grid_sim.Engine.now engine in
      let credential =
        Grid_gsi.Credential.of_identity cell.proxy
          ~challenge:(Grid_sts.Service.fresh_challenge s)
      in
      match
        Grid_sts.Service.refresh s ~now
          ~owner:(Grid_gsi.Identity.subject cell.base) credential
      with
      | Ok (proxy, _token) ->
        cell.proxy <- proxy;
        incr renewals;
        Grid_obs.Obs.emit obs ~layer:"gsi" "credential.renewed"
          [ ("subject", cell.dn) ]
      | Error _ -> () (* revoked or stale: the proxy keeps its last expiry *)
    end
  in
  let rec schedule_renewal cell at =
    if at < total then
      Grid_sim.Engine.schedule_at engine at (fun () ->
          renew_cell cell;
          schedule_renewal cell (at +. renewal_period))
  in
  List.iter (fun cell -> schedule_renewal cell renewal_period) users;

  (* Revocation mid-campaign. Proxy path: mallory's end-entity
     certificate lands on the CA CRL and every chained proxy fails
     validation from the next authentication on. Token mode: the subject
     is revoked at the STS instead — outstanding jtis die and the news
     reaches each member's validator per the configured mode, so
     enforcement flows through the token layer the campaign is
     exercising (the service emits the ["credential.revoked"] and
     ["token.revoked"] events itself). *)
  Grid_sim.Engine.schedule_at engine (0.4 *. total) (fun () ->
      let cell = List.nth users 3 in
      match sts with
      | None ->
        Grid_gsi.Ca.Trust_store.revoke trust
          (Grid_gsi.Identity.certificate cell.base);
        incr revocations;
        Grid_obs.Obs.emit obs ~layer:"ca" "credential.revoked"
          [ ("subject", cell.dn) ]
      | Some s ->
        Grid_sts.Service.revoke_subject s ~now:(Grid_sim.Engine.now engine)
          (Grid_gsi.Identity.subject cell.base);
        incr revocations);

  (* VO/policy churn: membership and jobtag registration change while
     jobs are in flight; each reload recompiles the PEP, bumps the epoch
     (announced on the bus) and extends the oracle's history. *)
  let churn_points = [ 0.3; 0.6; 0.85 ] in
  List.iteri
    (fun i fraction ->
      Grid_sim.Engine.schedule_at engine (fraction *. total) (fun () ->
          (if i mod 2 = 0 then begin
             Grid_vo.Vo.register_jobtag vo (Printf.sprintf "CHURN%d" i);
             Grid_vo.Vo.add_member vo
               ~dn:(Fusion_world.organization ^ Printf.sprintf "/CN=Churn User %d" i)
               ~groups:[ "developers" ]
           end
           else Grid_vo.Vo.remove_member vo ~dn:(Grid_gsi.Dn.parse mallory));
          let fresh = sources () in
          (* Every member recompiles the churned sources. One member is
             immediate (the original single-site behaviour); further
             members lag 5 s apart, so for a short window the federation
             deliberately enforces mixed policy generations — the oracle
             history keyed by epoch keeps the monitor exact through it. *)
          Array.iteri
            (fun m (_, (pep : Site.pep)) ->
              let reload () =
                pep.reload fresh;
                history := (pep.epoch (), answerer_for fresh) :: !history
              in
              if m = 0 then reload ()
              else Grid_sim.Engine.schedule_after engine (float_of_int m *. 5.0) reload)
            members;
          incr reloads))
    churn_points;

  (* Submission machinery over the networked entry points: challenge
     minted per request, proxy credential presented, reply tallied. *)
  let submit cell rsl =
    incr submitted;
    let resource = pick_resource rsl in
    let site = Grid_gram.Resource.name resource in
    let credential =
      Grid_gsi.Credential.of_identity cell.proxy
        ~challenge:(Grid_gram.Resource.new_challenge resource)
    in
    Grid_gram.Resource.submit resource ~credential ~rsl ~reply:(fun result ->
        (match broker with
        | None -> ()
        | Some b -> begin
          match result with
          | Error (Grid_gram.Protocol.Request_timeout _) ->
            Grid_mds.Broker.observe b ~site `Timeout
          | Ok _ | Error _ -> Grid_mds.Broker.observe b ~site `Answered
        end);
        match result with
        | Ok reply ->
          incr accepted;
          (* Management follow-ups: usually the owner, sometimes the VO
             admin exercising third-party management. *)
          if Grid_util.Rng.float rng 1.0 < 0.35 then begin
            let manager =
              if Grid_util.Rng.float rng 1.0 < 0.3 then kate else cell
            in
            let action =
              Grid_util.Rng.pick rng
                [ Grid_gram.Protocol.Status;
                  Grid_gram.Protocol.Cancel;
                  Grid_gram.Protocol.Signal Grid_gram.Protocol.Suspend ]
            in
            let delay = 1.0 +. Grid_util.Rng.float rng 60.0 in
            Grid_sim.Engine.schedule_after engine delay (fun () ->
                incr management;
                if config.batch = 1 then begin
                  let credential =
                    Grid_gsi.Credential.of_identity manager.proxy
                      ~challenge:(Grid_gram.Resource.new_challenge resource)
                  in
                  Grid_gram.Resource.manage resource
                    ~requester:(Grid_gsi.Identity.effective_subject manager.proxy)
                    ~credential ~contact:reply.Grid_gram.Protocol.job_contact action
                    ~reply:(fun result ->
                      match result with
                      | Ok _ -> ()
                      | Error (Grid_gram.Protocol.Request_timed_out _) ->
                        incr timed_out
                      | Error _ -> incr management_denied)
                end
                else begin
                  pending :=
                    (manager, resource, reply.Grid_gram.Protocol.job_contact, action)
                    :: !pending;
                  incr pending_count;
                  if !pending_count >= config.batch then flush_pending ()
                end)
          end
        | Error
            ( Grid_gram.Protocol.Authorization_failed _
            | Grid_gram.Protocol.Authentication_failed _
            | Grid_gram.Protocol.Gatekeeper_refused _ ) -> incr denied
        | Error (Grid_gram.Protocol.Request_timeout _) -> incr timed_out
        | Error _ -> incr failed)
  in
  let pick_user () =
    let weights = List.fold_left (fun acc c -> acc + c.weight) 0 users in
    let ticket = Grid_util.Rng.int rng weights in
    let rec go acc = function
      | [] -> List.hd users
      | [ c ] -> c
      | c :: rest -> if ticket < acc + c.weight then c else go (acc + c.weight) rest
    in
    go 0 users
  in
  let schedule_arrival at =
    let cell = pick_user () in
    let rsl = with_duration (Grid_util.Rng.pick rng cell.templates) in
    Grid_sim.Engine.schedule_at engine at (fun () -> submit cell rsl)
  in

  (* Baseline Poisson arrivals across the whole campaign. *)
  let rate = float_of_int config.jobs_per_day /. Grid_sim.Clock.days 1.0 in
  let t = ref 0.0 in
  let exponential () = -.log (1.0 -. Grid_util.Rng.float rng 1.0) /. rate in
  while
    t := !t +. exponential ();
    !t < total
  do
    schedule_arrival !t
  done;

  (* Daily bursts with a job-manager crash in the middle: a tenth of the
     day's volume lands in ten minutes, and halfway through the burst the
     job manager dies and recovers from snapshot + journal. *)
  let full_days = int_of_float (ceil config.days) in
  for day = 0 to full_days - 1 do
    let burst_start = (float_of_int day +. 0.5) *. Grid_sim.Clock.days 1.0 in
    if burst_start < total then begin
      let burst_jobs = max 5 (config.jobs_per_day / 10) in
      for _ = 1 to burst_jobs do
        schedule_arrival (burst_start +. Grid_util.Rng.float rng 600.0)
      done;
      Grid_sim.Engine.schedule_at engine (burst_start +. 300.0) (fun () ->
          incr crashes;
          (* Rotate the crash target so every member's recovery path is
             exercised across a multi-day federation campaign. *)
          let target = member_resources.(day mod config.resources) in
          Grid_gram.Resource.crash target;
          let summary = Grid_gram.Resource.recover target in
          restored := !restored + summary.Grid_gram.Resource.jobs_restored)
    end
  done;

  (* --- Violation self-injection ---------------------------------------- *)
  let synthetic ~at f =
    Grid_sim.Engine.schedule_at engine at (fun () ->
        let corr = Grid_obs.Obs.fresh_correlation obs in
        Grid_obs.Obs.with_correlation obs ~corr f)
  in
  (match config.inject with
  | None -> ()
  | Some Grid_obs.Monitor.Default_deny ->
    (* Real mis-wiring: arm the flip, then provoke a denial the PEP would
       refuse (developers are capped at count <= 4). *)
    Grid_sim.Engine.schedule_at engine (0.5 *. total) (fun () ->
        flip_next_denial := true;
        submit (List.hd users)
          "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=6)(simduration=60)")
  | Some Grid_obs.Monitor.Stale_epoch ->
    (* A cache answer stamped with the pre-churn epoch, emitted well
       after the first reload propagated. Fleet campaigns scope every
       member stream by resource and the monitor judges epoch freshness
       per scope, so the plant must land in member 0's scope (the epoch0
       baseline) or it would fall into an untracked scope and pass. *)
    synthetic ~at:(0.45 *. total) (fun () ->
        let attrs = [ ("scope", "injected"); ("epoch", string_of_int epoch0) ] in
        let attrs =
          if config.resources > 1 then ("resource", "soak-site") :: attrs
          else attrs
        in
        Grid_obs.Obs.emit obs ~layer:"injected" "cache.hit" attrs)
  | Some Grid_obs.Monitor.Expired_credential ->
    synthetic ~at:(0.5 *. total) (fun () ->
        let at = Grid_sim.Engine.now engine in
        Grid_obs.Obs.emit obs ~layer:"injected" "authz.decision"
          [ ("backend", "injected"); ("action", "start"); ("outcome", "permitted");
            ("subject", "/O=Grid/CN=Injected Ghost");
            ("cred_expiry", Printf.sprintf "%.3f" (at -. 3600.0)) ])
  | Some Grid_obs.Monitor.Fail_open_upgrade ->
    synthetic ~at:(0.5 *. total) (fun () ->
        Grid_obs.Obs.emit obs ~layer:"injected" "authz.degraded"
          [ ("mode", "fail_closed"); ("original", "system_error");
            ("final", "permitted") ])
  | Some Grid_obs.Monitor.Recovery_divergence ->
    (* A durable admission whose crash/recovery chain reports a clean
       store yet never restores the job — placed after the campaign so it
       cannot entangle with a real recovery. *)
    let base = total +. 60.0 in
    synthetic ~at:base (fun () ->
        Grid_obs.Obs.emit obs ~layer:"injected" "job.created"
          [ ("contact", "ghost-job"); ("durable", "true") ]);
    synthetic ~at:(base +. 60.0) (fun () ->
        Grid_obs.Obs.emit obs ~layer:"injected" "resource.crashed"
          [ ("lost", "1") ]);
    synthetic ~at:(base +. 120.0) (fun () ->
        Grid_obs.Obs.emit obs ~layer:"injected" "resource.recovered"
          [ ("restored", "0"); ("dropped_bytes", "0"); ("decode_failures", "0") ])
  | Some Grid_obs.Monitor.Token_revocation ->
    (* A revoked jti accepted by a validating PEP well outside the
       monitor's effective window — the chain the instrumentation would
       emit if a validator silently lost a revocation. The synthetic
       token's [not_after] lies past the acceptance so the plant trips
       exactly one class, not expiry as well. *)
    let revoke_at = 0.5 *. total in
    let accept_at = revoke_at +. monitor_window +. 3600.0 in
    synthetic ~at:revoke_at (fun () ->
        Grid_obs.Obs.emit obs ~layer:"injected" "token.revoked"
          [ ("jti", "injected-jti"); ("subject", "/O=Grid/CN=Injected Ghost");
            ("revoked_at", Printf.sprintf "%.6f" (Grid_sim.Engine.now engine)) ]);
    synthetic ~at:accept_at (fun () ->
        Grid_obs.Obs.emit obs ~layer:"injected" "token.validated"
          [ ("outcome", "accepted"); ("jti", "injected-jti");
            ("subject", "/O=Grid/CN=Injected Ghost"); ("action", "start");
            ("not_after", Printf.sprintf "%.6f" (accept_at +. 7200.0)) ]));

  (* Providers re-arm their publish loop forever — and a pull-mode STS
     validator its poll loop — so those campaigns cannot drain with a
     plain [run]: advance past the campaign end plus the longest
     follow-up delays, quiesce the loops, then settle the remainder. The
     original single-site proxy-path drain is kept byte for byte. *)
  (match (providers, sts) with
  | [], None -> Grid_sim.Engine.run engine
  | ps, s ->
    Grid_sim.Engine.run_until engine (total +. 600.0);
    List.iter Grid_mds.Provider.stop ps;
    Option.iter Grid_sts.Service.quiesce s;
    Grid_sim.Engine.run engine);
  (* A partial management batch may remain after the last follow-up:
     flush it and drain whatever the performed actions scheduled. *)
  flush_pending ();
  Grid_sim.Engine.run engine;
  Option.iter Grid_obs.Monitor.flush monitor;

  { submitted = !submitted;
    accepted = !accepted;
    denied = !denied;
    failed = !failed;
    timed_out = !timed_out;
    management = !management;
    management_denied = !management_denied;
    renewals = !renewals;
    revocations = !revocations;
    reloads = !reloads;
    crashes = !crashes;
    jobs_restored = !restored;
    events_checked =
      (match monitor with Some m -> Grid_obs.Monitor.events_seen m | None -> 0);
    violations =
      (match monitor with Some m -> Grid_obs.Monitor.violations m | None -> []) }

let violation_classes report =
  List.sort_uniq compare
    (List.map (fun (v : Grid_obs.Monitor.violation) -> v.Grid_obs.Monitor.vclass)
       report.violations)

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>soak campaign: %d submitted (%d accepted, %d denied, %d failed, %d timed out)@,\
     management: %d requests (%d refused)@,\
     churn: %d renewals, %d revocations, %d policy reloads, %d crashes (%d jobs restored)@,\
     monitor: %d events checked, %d violation(s)%a@]"
    r.submitted r.accepted r.denied r.failed r.timed_out r.management
    r.management_denied r.renewals r.revocations r.reloads r.crashes r.jobs_restored
    r.events_checked (List.length r.violations)
    (fun ppf -> function
      | [] -> ()
      | vs -> Fmt.pf ppf "@,%a" (Fmt.list ~sep:Fmt.cut Grid_obs.Monitor.pp_violation) vs)
    r.violations
