(* The traced replay: per-layer cost of the request path.

   After a workload's untraced rounds, the replay runs the same seeded
   request stream again, op by op, on a world with the same
   configuration and an enabled observer. Instead of entering through
   [Client]/[Resource], it calls each layer's public function itself,
   in pipeline order, and wraps every call in a host-clock span. The
   decision callout is a bench-built [Mode.extended_batch] whose
   [Callout.Batch] lanes sit behind timers, so the decision cache's self
   time is its span minus the policy engine's (and token gate's) spans
   beneath it. Self time and minor words per span are charged to the
   span's layer and op; every span is also kept in memory for a Chrome
   trace file written at exit. *)

open Core

(* --- Layers and the span recorder -------------------------------------------- *)

let layer_names =
  [| "op"; "gsi.authn"; "rsl.parse"; "accounts.map"; "callout.cache"; "sts.validate";
     "policy.decide"; "gram.jmi"; "store.append"; "sim.drain"; "sts.exchange";
     "population.draw"; "mds.broker"; "policy.reload" |]

(* [op] is the root span of one op; its self time is replay glue. *)
let op_root = 0
let authn = 1
let parse = 2
let map = 3
let cache = 4
let validate = 5
let decide = 6
let jmi = 7
let append = 8
let drain = 9
let exchange = 10
let draw = 11
let broker = 12
let reload = 13
let layer_count = Array.length layer_names
let max_depth = 32

type recorder = {
  slots : int;  (** op slots: setup, warm-up and timed ops of the replay *)
  self_ns : float array;  (** [layer * slots + op] *)
  self_words : float array;  (** [layer * slots + op] *)
  calls : int array;  (** [layer * slots + op] *)
  mutable op : int;
  mutable depth : int;
  st_layer : int array;
  st_id : int array;
  st_start : float array;
  st_words : float array;
  st_child_ns : float array;
  st_child_words : float array;
  mutable next_id : int;
  spans : Measure.Samples.t;
      (** six floats per closed span: id, layer, start, end, parent, op *)
}

let recorder slots =
  { slots;
    self_ns = Array.make (layer_count * slots) 0.0;
    self_words = Array.make (layer_count * slots) 0.0;
    calls = Array.make (layer_count * slots) 0;
    op = 0;
    depth = 0;
    st_layer = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0.0;
    st_words = Array.make max_depth 0.0;
    st_child_ns = Array.make max_depth 0.0;
    st_child_words = Array.make max_depth 0.0;
    next_id = 0;
    spans = Measure.Samples.create () }

let enter r layer =
  let d = r.depth in
  r.depth <- d + 1;
  r.st_layer.(d) <- layer;
  r.st_id.(d) <- r.next_id;
  r.next_id <- r.next_id + 1;
  r.st_child_ns.(d) <- 0.0;
  r.st_child_words.(d) <- 0.0;
  r.st_words.(d) <- Gc.minor_words ();
  r.st_start.(d) <- Measure.now_ns ()

let leave r =
  let stop = Measure.now_ns () in
  let words = Gc.minor_words () in
  let d = r.depth - 1 in
  r.depth <- d;
  let dur = stop -. r.st_start.(d) and used = words -. r.st_words.(d) in
  let cell = (r.st_layer.(d) * r.slots) + r.op in
  r.self_ns.(cell) <- r.self_ns.(cell) +. (dur -. r.st_child_ns.(d));
  r.self_words.(cell) <- r.self_words.(cell) +. (used -. r.st_child_words.(d));
  r.calls.(cell) <- r.calls.(cell) + 1;
  let parent =
    if d > 0 then begin
      r.st_child_ns.(d - 1) <- r.st_child_ns.(d - 1) +. dur;
      r.st_child_words.(d - 1) <- r.st_child_words.(d - 1) +. used;
      float_of_int r.st_id.(d - 1)
    end
    else -1.0
  in
  let s = r.spans in
  Measure.Samples.add s (float_of_int r.st_id.(d));
  Measure.Samples.add s (float_of_int r.st_layer.(d));
  Measure.Samples.add s r.st_start.(d);
  Measure.Samples.add s stop;
  Measure.Samples.add s parent;
  Measure.Samples.add s (float_of_int r.op)

let span r layer f =
  enter r layer;
  match f () with
  | v ->
    leave r;
    v
  | exception e ->
    leave r;
    raise e

(* Run op [i] under its root span. *)
let op r i f =
  r.op <- i;
  span r op_root f

(* A callout batch whose two lanes each run under a [layer] span. *)
let timed_batch r layer (b : Callout.Callout.Batch.t) =
  Callout.Callout.Batch.make
    ~single:(fun q -> span r layer (fun () -> b.Callout.Callout.Batch.single q))
    ~many:(fun qs -> span r layer (fun () -> b.Callout.Callout.Batch.many qs))

(* --- Summaries ----------------------------------------------------------------- *)

type layer_cost = {
  layer : string;
  ns_per_op : float;
  words_per_op : float;
  calls_per_op : float;
  drift : float;
      (** mean self time over the last tenth of the measured op slots
          divided by the mean over the first tenth; [nan] for a layer
          that never ran in the first tenth *)
}

type result = {
  costs : layer_cost list;  (** every layer but the root, in pipeline order *)
  ns_per_op : float;  (** replay time per op, root spans inclusive *)
  spans : float array;
}

(* Per-op costs over op slots [first, first + count), which carry [ops]
   workload ops between them. *)
let summarize r ~first ~count ~ops =
  let per_op = float_of_int (max 1 ops) in
  let layer_sum arr l =
    let acc = ref 0.0 in
    for i = first to first + count - 1 do
      acc := !acc +. arr.((l * r.slots) + i)
    done;
    !acc
  in
  let tenth = max 1 (count / 10) in
  let mean_ns l lo =
    let acc = ref 0.0 in
    for i = lo to lo + tenth - 1 do
      acc := !acc +. r.self_ns.((l * r.slots) + i)
    done;
    !acc /. float_of_int tenth
  in
  let cost l =
    let calls = ref 0 in
    for i = first to first + count - 1 do
      calls := !calls + r.calls.((l * r.slots) + i)
    done;
    let head = mean_ns l first in
    { layer = layer_names.(l);
      ns_per_op = layer_sum r.self_ns l /. per_op;
      words_per_op = layer_sum r.self_words l /. per_op;
      calls_per_op = float_of_int !calls /. per_op;
      drift = (if head > 0.0 then mean_ns l (first + count - tenth) /. head else nan) }
  in
  let total = ref 0.0 in
  for l = 0 to layer_count - 1 do
    total := !total +. layer_sum r.self_ns l
  done;
  { costs = List.init (layer_count - 1) (fun l -> cost (l + 1));
    ns_per_op = !total /. per_op;
    spans = Measure.Samples.to_array r.spans }

(* --- One replayed site ---------------------------------------------------------- *)

(* A GRAM resource assembled from its public components the way
   [Testbed.make_resource] and [Resource.create] assemble it, with timed
   callout lanes. The replay drives its gatekeeper, mapper, job managers
   and store directly. *)
type site = {
  name : string;
  engine : Sim.Engine.t;
  obs : Obs.Obs.t;
  lrm : Lrm.Lrm.t;
  mapper : Accounts.Mapper.t;
  gatekeeper : Gram.Gatekeeper.t;
  audit : Audit.Audit.t;
  trace : Sim.Trace.t;
  pep : Callout.File_pep.Compiled.t;
  mode : Gram.Mode.t;
  store : Store.Store.t option;
  network : Sim.Network.t;
  jmis : (string, Gram.Job_manager.t) Hashtbl.t;
  lrm_contacts : (string, string) Hashtbl.t;
  mutable oracle : Oracle.t;
}

let journal r site event =
  match site.store with
  | None -> ()
  | Some store ->
    span r append (fun () -> Store.Store.append store (Gram.Persist.encode (event ())))

let make_site r tb ~name ~obs ~nodes ~mapper ~capacity ~store ~network ?sts ~oracle sources =
  let engine = Testbed.engine tb in
  let now () = Sim.Engine.now engine in
  let lrm = Lrm.Lrm.create ~obs ~nodes ~cpus_per_node:8 engine in
  let pep = Callout.File_pep.Compiled.create ~obs sources in
  let epoch () = Callout.File_pep.Compiled.epoch pep in
  let decided = timed_batch r decide (Callout.File_pep.Compiled.batch pep) in
  let validator =
    Option.map (fun s -> Sts.Service.attach_validator s ~obs ~name ()) sts
  in
  let gated =
    match sts with
    | None -> decided
    | Some s ->
      timed_batch r validate
        (Sts.Pep.batch ~obs ?validator ~sts_key:(Sts.Service.public_key s) ~audience:"*"
           ~now decided)
  in
  let decision_cache =
    Callout.Cache.create ~capacity ~ttl:(Sim.Clock.minutes 5.0) ~obs ~epoch
      ?extra_deadline:(Option.map (fun _ -> Sts.Token.credential_deadline) sts)
      ~revoked:(fun cred ->
        List.exists
          (Gsi.Ca.Trust_store.is_revoked (Testbed.trust tb))
          cred.Gsi.Credential.chain)
      ~now ()
  in
  (match validator with
  | Some v ->
    Sts.Validator.on_revocation v (fun ~jti:_ ~subject:_ ->
        Callout.Cache.invalidate decision_cache)
  | None -> ());
  let mode =
    Gram.Mode.extended_batch ~backend:"flat_file"
      ~advice:(Callout.File_pep.advice sources)
      (timed_batch r cache
         (Callout.Cache.with_cache_many decision_cache ~scope:"flat_file" gated))
    |> Gram.Mode.instrument ~epoch ~obs
  in
  let audit = Audit.Audit.create () and trace = Sim.Trace.create () in
  let gatekeeper =
    Gram.Gatekeeper.create ~name:(name ^ ":gatekeeper") ~trust:(Testbed.trust tb) ~mapper
      ~mode ~lrm ~engine ~audit ~trace ~obs ()
  in
  let store =
    if store then
      Some
        (Store.Store.create ~obs ~disk:(Sim.Disk.create ~seed:(1299709 + 29) ()) ~name ())
    else None
  in
  let site =
    { name; engine; obs; lrm; mapper; gatekeeper; audit; trace; pep; mode; store; network;
      jmis = Hashtbl.create 1024; lrm_contacts = Hashtbl.create 1024; oracle }
  in
  (* Terminal transitions of journalled jobs, as [Resource] records them. *)
  if Option.is_some store then
    Lrm.Lrm.on_event lrm (fun (Lrm.Lrm.State_changed { job; _ }) ->
        match Hashtbl.find_opt site.lrm_contacts job.Lrm.Lrm.id with
        | None -> ()
        | Some contact -> begin
          match job.Lrm.Lrm.state with
          | Lrm.Lrm.Completed | Lrm.Lrm.Cancelled | Lrm.Lrm.Killed _ ->
            Hashtbl.remove site.lrm_contacts job.Lrm.Lrm.id;
            journal r site (fun () ->
                Gram.Persist.Job_state
                  { contact; state = Lrm.Lrm.state_to_string job.Lrm.Lrm.state; at = now () })
          | Lrm.Lrm.Pending | Lrm.Lrm.Running | Lrm.Lrm.Suspended -> ()
        end);
  site

(* GSI authentication, both halves: the client's proof against a fresh
   challenge and the gatekeeper's validation of it. *)
let authenticate r site identity =
  span r authn (fun () ->
      let credential =
        Gsi.Credential.of_identity identity
          ~challenge:(Gram.Gatekeeper.new_challenge site.gatekeeper)
      in
      (credential, Gram.Gatekeeper.authenticate site.gatekeeper credential))

(* The gatekeeper path of a submission (as [Gatekeeper.handle_submit])
   followed by the resource's creation record (as
   [Resource.submit_direct]). *)
let submit r site ~identity ~rsl =
  match authenticate r site identity with
  | _, Error e -> Error (Gram.Protocol.Authentication_failed (Gsi.Authn.error_to_string e))
  | credential, Ok ctx ->
    let user = ctx.Gsi.Authn.peer in
    if Gsi.Credential.is_limited credential then
      Error (Gram.Protocol.Gatekeeper_refused "limited proxies may not start jobs")
    else begin
      match span r parse (fun () -> Rsl.Job.of_string rsl) with
      | Error e -> Error (Gram.Protocol.Bad_rsl (Rsl.Job.error_to_string e))
      | Ok job -> begin
        match
          span r map (fun () ->
              Accounts.Mapper.resolve site.mapper ~now:(Sim.Engine.now site.engine) user)
        with
        | Error (Accounts.Mapper.No_local_account _ as e) ->
          Error (Gram.Protocol.Gatekeeper_refused (Accounts.Mapper.error_to_string e))
        | Error e ->
          Error (Gram.Protocol.Account_mapping_failed (Accounts.Mapper.error_to_string e))
        | Ok mapping -> begin
          match
            span r jmi (fun () ->
                let jmi =
                  Gram.Job_manager.create ~obs:site.obs ~owner:user
                    ~account:mapping.Accounts.Mapper.account
                    ~limits:mapping.Accounts.Mapper.limits ~job ~mode:site.mode ~lrm:site.lrm
                    ~engine:site.engine ~audit:site.audit ~trace:site.trace ()
                in
                Result.map (fun reply -> (jmi, reply))
                  (Gram.Job_manager.start jmi ~credential:(Some credential)))
          with
          | Error _ as e -> e
          | Ok (jmi, reply) ->
            let contact = Gram.Job_manager.contact jmi in
            Hashtbl.replace site.jmis contact jmi;
            Option.iter
              (fun id -> Hashtbl.replace site.lrm_contacts id contact)
              (Gram.Job_manager.lrm_job_id jmi);
            journal r site (fun () ->
                Gram.Persist.Job_created
                  { Gram.Persist.contact;
                    owner = user;
                    account = Gram.Job_manager.account jmi;
                    jobtag = Gram.Job_manager.jobtag jmi;
                    rsl = Rsl.Job.to_string job;
                    rsl_fingerprint = Gram.Persist.fingerprint job;
                    policy_epoch = Some (Callout.File_pep.Compiled.epoch site.pep);
                    limits = Gram.Job_manager.limits jmi;
                    lrm_job = Gram.Job_manager.lrm_job_id jmi;
                    created_at = Sim.Engine.now site.engine });
            Ok reply
        end
      end
    end

let journal_management r site ~requester ~contact action result =
  match action with
  | Gram.Protocol.Status -> ()
  | Gram.Protocol.Cancel | Gram.Protocol.Signal _ ->
    if Hashtbl.mem site.jmis contact then
      journal r site (fun () ->
          Gram.Persist.Management
            { contact;
              requester;
              action = Gram.Protocol.management_action_to_string action;
              outcome =
                (match result with
                | Ok _ -> "ok"
                | Error (Gram.Protocol.Not_authorized _) -> "denied"
                | Error _ -> "error");
              at = Sim.Engine.now site.engine })

(* An authenticated management request (as [Resource.manage_direct]). *)
let manage r site ~identity ~contact action =
  let requester = Gsi.Identity.effective_subject identity in
  let result =
    match Hashtbl.find_opt site.jmis contact with
    | None -> Error (Gram.Protocol.Unknown_job contact)
    | Some jm -> begin
      match authenticate r site identity with
      | _, Error e ->
        Error (Gram.Protocol.Management_authentication_failed (Gsi.Authn.error_to_string e))
      | credential, Ok ctx ->
        if not (Gsi.Dn.equal ctx.Gsi.Authn.peer requester) then
          Error (Gram.Protocol.Management_authentication_failed "identity mismatch")
        else
          span r jmi (fun () -> Gram.Job_manager.manage jm ~requester ~credential action)
    end
  in
  journal_management r site ~requester ~contact action result;
  result

(* A credential-less management batch (as [Resource.manage_many_direct]). *)
let manage_many r site (requests : Gram.Resource.manage_request array) =
  let results =
    span r jmi (fun () ->
        Gram.Job_manager.manage_many
          (Array.map
             (fun (q : Gram.Resource.manage_request) ->
               ( Hashtbl.find site.jmis q.Gram.Resource.contact,
                 q.Gram.Resource.requester,
                 None,
                 q.Gram.Resource.action ))
             requests))
  in
  Array.iteri
    (fun i (q : Gram.Resource.manage_request) ->
      journal_management r site ~requester:q.Gram.Resource.requester
        ~contact:q.Gram.Resource.contact q.Gram.Resource.action results.(i))
    requests;
  results

(* One request over the site's network: the request hop, [work] at
   delivery, the reply hop. [`Reply] drives the engine until the reply
   is in (the client's blocking wait); [`Drain] runs it dry. *)
let over_network r site ?(settle = `Reply) work =
  let cell = ref None in
  Sim.Network.send ~link:"client->resource" site.network (fun () ->
      let result = work () in
      Sim.Network.send ~link:"resource->client" site.network (fun () -> cell := Some result));
  span r drain (fun () ->
      match settle with
      | `Drain -> Sim.Engine.run site.engine
      | `Reply ->
        while !cell = None && Sim.Engine.step site.engine do
          ()
        done);
  Option.get !cell

(* --- Cast workloads --------------------------------------------------------------- *)

type cast = { site : site; identity : Inputs.who -> Gsi.Identity.t }

(* The [Fusion.build ~nodes:64 ~authz_cache:4096 ~store:true] world. *)
let cast_world r =
  let tb = Testbed.create () in
  let sources = Workloads.policy_sources () in
  let site =
    make_site r tb ~name:"fusion-site" ~obs:(Testbed.obs tb) ~nodes:64
      ~mapper:(Accounts.Mapper.create (Gsi.Gridmap.parse Fusion.gridmap_text))
      ~capacity:4096 ~store:true
      ~network:(Sim.Network.create (Testbed.engine tb))
      ~oracle:(Oracle.create sources) sources
  in
  let bo = Testbed.add_user tb Fusion.bo_liu in
  let kate = Testbed.add_user tb Fusion.kate_keahey in
  let admin = Testbed.add_user tb Fusion.admin in
  let outsider = Testbed.add_user tb Fusion.outsider in
  { site;
    identity =
      (function
      | Inputs.Bo -> bo
      | Inputs.Kate -> kate
      | Inputs.Admin -> admin
      | Inputs.Outsider -> outsider) }

let standing r (c : cast) ~check n =
  Array.init n (fun j ->
      let who, tpl = Inputs.standing_template j in
      let result =
        op r j (fun () ->
            over_network r c.site (fun () ->
                submit r c.site ~identity:(c.identity who) ~rsl:tpl.Oracle.text))
      in
      let owner = Gsi.Dn.parse (Inputs.dn_of who) in
      Workloads.record check ~phase:"replay standing" ~op:j
        (Oracle.check_submit c.site.oracle ~requester:owner tpl result);
      let contact =
        match result with Ok reply -> reply.Gram.Protocol.job_contact | Error _ -> "unplaced"
      in
      (contact, owner, tpl.Oracle.jobtag))

let replay_submit ~check ~seed ~job_seconds (size : Workloads.size) =
  let n = size.Workloads.warmup + size.Workloads.timed in
  let r = recorder n in
  let c = cast_world r in
  let stream = Inputs.submit_stream ~seed ~job_seconds n in
  for i = 0 to n - 1 do
    let who, tpl = stream.(i) in
    let result =
      op r i (fun () ->
          over_network r c.site ~settle:`Drain (fun () ->
              submit r c.site ~identity:(c.identity who) ~rsl:tpl.Oracle.text))
    in
    Workloads.record check ~phase:"replay" ~op:i
      (Oracle.check_submit c.site.oracle ~requester:(Gsi.Dn.parse (Inputs.dn_of who)) tpl
         result)
  done;
  summarize r ~first:size.Workloads.warmup ~count:size.Workloads.timed ~ops:size.Workloads.timed

let replay_manage ~check ~seed (size : Workloads.size) =
  let jobs_n = Workloads.manage_jobs in
  let n = size.Workloads.warmup + size.Workloads.timed in
  let r = recorder (jobs_n + n) in
  let c = cast_world r in
  let jobs = standing r c ~check jobs_n in
  let oracle = c.site.oracle in
  let owner_of j = if j mod 2 = 0 then Inputs.Bo else Inputs.Kate in
  let stream =
    Inputs.manage_stream ~seed ~jobs:jobs_n ~owner_of
      ~cancel_ok:(fun who j -> Workloads.cancel_permitted oracle jobs (Inputs.dn_of who) j)
      n
  in
  for i = 0 to n - 1 do
    let m = stream.(i) in
    let contact, owner, jobtag = jobs.(m.Inputs.job) in
    let result =
      op r (jobs_n + i) (fun () ->
          over_network r c.site (fun () ->
              manage r c.site ~identity:(c.identity m.Inputs.requester) ~contact
                m.Inputs.action))
    in
    Workloads.record check ~phase:"replay" ~op:i
      (Oracle.check_manage oracle ~requester:(Gsi.Dn.parse (Inputs.dn_of m.Inputs.requester))
         ~owner ~jobtag m.Inputs.action result)
  done;
  summarize r ~first:(jobs_n + size.Workloads.warmup) ~count:size.Workloads.timed
    ~ops:size.Workloads.timed

let replay_batch ~check ~seed (size : Workloads.size) =
  let jobs_n = Workloads.batch_jobs and width = Workloads.batch_width in
  let calls = size.Workloads.warmup + size.Workloads.timed in
  let r = recorder (jobs_n + calls) in
  let c = cast_world r in
  let jobs = standing r c ~check jobs_n in
  let oracle = c.site.oracle in
  let stream =
    Inputs.batch_stream ~seed ~jobs:jobs_n
      ~cancel_ok:(Workloads.cancel_permitted oracle jobs)
      (calls * width)
  in
  for k = 0 to calls - 1 do
    let requests =
      Array.init width (fun j ->
          let b = stream.((k * width) + j) in
          let contact, _, _ = jobs.(b.Inputs.target) in
          { Gram.Resource.requester = Gsi.Dn.parse b.Inputs.requester_dn;
            credential = None;
            contact;
            action = b.Inputs.op })
    in
    let results = op r (jobs_n + k) (fun () -> manage_many r c.site requests) in
    Array.iteri
      (fun j result ->
        let b = stream.((k * width) + j) in
        let _, owner, jobtag = jobs.(b.Inputs.target) in
        Workloads.record check ~phase:"replay" ~op:((k * width) + j)
          (Oracle.check_manage oracle ~requester:requests.(j).Gram.Resource.requester ~owner
             ~jobtag b.Inputs.op result))
      results
  done;
  summarize r ~first:(jobs_n + size.Workloads.warmup) ~count:size.Workloads.timed
    ~ops:(size.Workloads.timed * width)

(* --- Fleet ---------------------------------------------------------------------------- *)

(* The [Fusion.build ~fleet:4 ~population ~sts:Short_ttl] world, member by
   member as [Fleet.create] builds it, plus the campaign of
   [Workload.run_population] re-driven from the seed: Poisson arrivals,
   zipfian subjects, token exchange, brokered placement, owner or
   community-admin follow-ups, and two churn points with staggered
   per-member reloads. *)
let replay_fleet ~check ~seed (size : Workloads.size) =
  let arrivals = size.Workloads.timed in
  let r = recorder arrivals in
  let config = Workloads.fleet_config ~seed arrivals in
  let population = Workloads.fleet_population () in
  let tb = Testbed.create () in
  let engine = Testbed.engine tb and obs = Testbed.obs tb in
  let vo = Fusion.build_vo () in
  let sources () =
    [ Policy.Combine.source ~name:"resource-owner"
        (Fusion.resource_owner_policy () @ Population.owner_policy population);
      Policy.Combine.source ~name:(Vo.Vo.name vo)
        (Vo.Vo.compile_policy vo @ Population.policy population) ]
  in
  let sts =
    Sts.Service.create ~name:"fusion-sts" ~mode:Sts.Validator.Short_ttl ~engine
      ~trust:(Testbed.trust tb) ~obs ()
  in
  let directory = Mds.Directory.create engine in
  let oracle () = Oracle.create ~mappable:(fun _ -> true) (sources ()) in
  let members =
    Array.init Workloads.fleet_members (fun i ->
        let name = Printf.sprintf "fusion-site-%d" i in
        let obs = Obs.Obs.scoped obs [ ("resource", name) ] in
        let pool =
          Accounts.Pool.create
            ~size:(min (Population.size population) 8192)
            ~lease_lifetime:(Sim.Clock.hours 8.0) ()
        in
        let mapper =
          Accounts.Mapper.create ~pool (Gsi.Gridmap.parse Fusion.gridmap_text)
        in
        let network =
          Sim.Network.create ~faults:Sim.Network.Faults.none
            ~fault_seed:(1299709 + (31 * i))
            engine
        in
        let site =
          make_site r tb ~name ~obs ~nodes:64 ~mapper ~capacity:1024 ~store:false ~network
            ~sts ~oracle:(oracle ()) (sources ())
        in
        (* A stand-in resource over the member's LRM, so the directory's
           provider and the broker see the member's real load. *)
        let resource =
          Gram.Resource.create ~name ~network ~obs ~trust:(Testbed.trust tb) ~mapper
            ~mode:Gram.Mode.Gt2_baseline ~lrm:site.lrm ~engine ()
        in
        let provider = Mds.Provider.attach ~period:30.0 ~site:name ~directory resource in
        (site, resource, provider))
  in
  let mds_broker =
    Mds.Broker.create ~seed:0 ~obs ~directory
      (Array.to_list (Array.map (fun (_, res, _) -> res) members))
  in
  let site_named name =
    let found = ref None in
    Array.iter (fun (s, _, _) -> if s.name = name then found := Some s) members;
    Option.get !found
  in
  let rng = Util.Rng.create ~seed:config.Workload.pop_seed in
  let admin_rank = Population.admin_rank population in
  (* Verdicts are computed between ops, outside every span. *)
  let checks = Queue.create () in
  let fail reason = Queue.add (fun () -> Some reason) checks in
  let templates = Hashtbl.create 8 in
  let template rsl =
    match Hashtbl.find_opt templates rsl with
    | Some tpl -> tpl
    | None ->
      let tpl = Oracle.template rsl in
      Hashtbl.replace templates rsl tpl;
      tpl
  in
  let follow_up ~owner_rank ~(site : site) ~contact =
    let cross =
      Util.Rng.float rng 1.0 < config.Workload.cross_admin_probability
      && owner_rank <> admin_rank
    in
    let requester_rank = if cross then admin_rank else owner_rank in
    let action =
      Util.Rng.pick rng
        [ Gram.Protocol.Status; Gram.Protocol.Cancel;
          Gram.Protocol.Signal Gram.Protocol.Suspend ]
    in
    let delay = 1.0 +. Util.Rng.float rng 30.0 in
    Sim.Engine.schedule_after engine delay (fun () ->
        let now = Sim.Engine.now engine in
        let identity =
          span r draw (fun () ->
              Population.identity population ~ca:(Testbed.ca tb) ~now requester_rank)
        in
        match span r exchange (fun () -> Sts.Service.proxy_with_token sts ~now identity) with
        | Error _ -> fail "token exchange refused for a follow-up"
        | Ok (proxy, _token) ->
          Sim.Network.send ~link:"client->resource" site.network (fun () ->
              let oracle = site.oracle in
              let result = manage r site ~identity:proxy ~contact action in
              Sim.Network.send ~link:"resource->client" site.network (fun () ->
                  Queue.add
                    (fun () ->
                      Oracle.check_manage oracle
                        ~requester:(Gsi.Identity.effective_subject proxy)
                        ~owner:(Gsi.Dn.parse (Population.dn population owner_rank))
                        ~jobtag:(Some (Population.jobtag population owner_rank))
                        action result)
                    checks)))
  in
  let arrive rank =
    let now = Sim.Engine.now engine in
    let identity, rsl =
      span r draw (fun () ->
          ( Population.identity population ~ca:(Testbed.ca tb) ~now rank,
            Population.template population rng rank ))
    in
    match span r exchange (fun () -> Sts.Service.proxy_with_token sts ~now identity) with
    | Error _ -> fail "token exchange refused for an arrival"
    | Ok (proxy, _token) -> begin
      match span r parse (fun () -> Rsl.Job.of_string rsl) with
      | Error e -> fail ("template rejected: " ^ Rsl.Job.error_to_string e)
      | Ok job -> begin
        match span r broker (fun () -> Mds.Broker.select mds_broker ~job) with
        | [] -> fail "arrival unplaceable"
        | chosen :: _ ->
          let site = site_named (Gram.Resource.name chosen) in
          Sim.Network.send ~link:"client->resource" site.network (fun () ->
              let oracle = site.oracle in
              let result = submit r site ~identity:proxy ~rsl in
              Sim.Network.send ~link:"resource->client" site.network (fun () ->
                  span r broker (fun () ->
                      Mds.Broker.observe mds_broker ~site:site.name `Answered);
                  Queue.add
                    (fun () ->
                      Oracle.check_submit oracle
                        ~requester:(Gsi.Identity.effective_subject proxy) (template rsl)
                        result)
                    checks;
                  match result with
                  | Ok reply ->
                    if Util.Rng.float rng 1.0 < config.Workload.pop_management_probability
                    then
                      follow_up ~owner_rank:rank ~site
                        ~contact:reply.Gram.Protocol.job_contact
                  | Error _ -> ()))
      end
    end
  in
  let flush_checks () =
    Queue.iter
      (fun verdict -> Workloads.record check ~phase:"replay" ~op:r.op (verdict ()))
      checks;
    Queue.clear checks
  in
  (* Arrival instants first, as the campaign schedules them; churn at
     fixed fractions of the arrival span, members reloading staggered. *)
  let start = Sim.Engine.now engine in
  let times = Array.make arrivals start in
  let t = ref start in
  for k = 0 to arrivals - 1 do
    t := !t -. (log (1.0 -. Util.Rng.float rng 1.0) /. config.Workload.pop_arrival_rate);
    times.(k) <- !t
  done;
  let span_s = !t -. start in
  List.iter
    (fun fraction ->
      Sim.Engine.schedule_at engine
        (start +. (fraction *. span_s))
        (fun () ->
          Population.churn population;
          Array.iteri
            (fun i (site, _, _) ->
              Sim.Engine.schedule_after engine
                (float_of_int i *. config.Workload.reload_stagger)
                (fun () ->
                  span r reload (fun () ->
                      Callout.File_pep.Compiled.reload site.pep (sources ()));
                  site.oracle <- oracle ()))
            members))
    config.Workload.churn_points;
  for k = 0 to arrivals - 1 do
    op r k (fun () ->
        span r drain (fun () -> Sim.Engine.run_until engine times.(k));
        arrive (Population.sample population rng));
    flush_checks ()
  done;
  (* The settling tail belongs to the last arrival, as in the untraced
     campaign's last call. *)
  op r (arrivals - 1) (fun () ->
      span r drain (fun () ->
          Sim.Engine.run_until engine (!t +. 64.0);
          Array.iter (fun (_, _, provider) -> Mds.Provider.stop provider) members;
          Sts.Service.quiesce sts;
          Sim.Engine.run engine));
  flush_checks ();
  summarize r ~first:0 ~count:arrivals ~ops:arrivals
