(* A federated fleet of GRAM-managed resources behind one MDS.

   Each member is a full site: its own gatekeeper, job managers, LRM,
   policy evaluation point (flat-file or ReBAC) with an independent
   policy epoch, optional decision cache, and optional durable store.
   Every member publishes into a shared [Mds.Directory] through an
   information provider, and clients place work through a shared
   [Mds.Broker] — capacity- and queue-aware, seeded tie-breaking,
   per-site circuit breakers.

   Cross-resource third-party management is the point of the exercise:
   a jobtag granted by the VO policy authorizes cancel/signal on ANY
   member's jobs carrying that tag, so a management request must first
   be routed to the member that owns the contact. The fleet keeps a
   contact -> member route table (fed by submissions, trimmed when the
   member's LRM reports a job terminal, so it stays O(live jobs)) and
   falls back to probing members' JMI tables for contacts it does not
   route — finished jobs, jobs submitted behind the fleet's back or
   restored after a crash.

   Each member is wired by [Site], as every other resource in [Core] is.
   Layering note: this module sits below [Core] (it compiles first), so
   it cannot use [Testbed]; callers hand it the engine, trust store and
   observability handle explicitly. [Core.Fusion.build ?fleet] does the
   assembly for the standard world. *)

type member = {
  name : string;
  site : Site.t;
  pep : Site.pep;  (* the member's own policy index and epoch *)
  provider : Grid_mds.Provider.t;
}

type t = {
  engine : Grid_sim.Engine.t;
  obs : Grid_obs.Obs.t;
  directory : Grid_mds.Directory.t;
  broker : Grid_mds.Broker.t;
  members : member array;
  (* contact -> member name; the authoritative owner of a live job *)
  routes : (string, string) Hashtbl.t;
  sources : unit -> Grid_policy.Combine.source list;
  seed : int;
}

type submit_error =
  | Unplaceable  (** discovery produced no usable candidate *)
  | Rejected of string  (** the RSL did not parse *)
  | Site_error of string * Grid_gram.Protocol.submit_error
      (** a site answered — the job's problem, not the fleet's *)
  | Unreachable of (string * Grid_gram.Protocol.submit_error) list
      (** every ranked candidate timed out *)

let submit_error_to_string = function
  | Unplaceable -> "no resource matches the request"
  | Rejected e -> "RSL rejected: " ^ e
  | Site_error (site, e) ->
    Printf.sprintf "%s: %s" site (Grid_gram.Protocol.submit_error_to_string e)
  | Unreachable timeouts ->
    "no candidate reachable:\n"
    ^ Grid_util.Strings.concat_map "\n"
        (fun (site, e) ->
          Printf.sprintf "  %s: %s" site (Grid_gram.Protocol.submit_error_to_string e))
        timeouts

let create ?(resources = 4) ?(name_prefix = "site") ?(nodes = 4) ?(cpus_per_node = 8)
    ?queues ?(gridmap = Grid_gsi.Gridmap.empty) ?dynamic_accounts ?(rebac = false)
    ?authz_cache ?(store = false) ?faults ?(fault_seed = 1299709) ?request_timeout
    ?precheck ?(seed = 0) ?breaker_threshold ?breaker_cooldown ?directory_ttl
    ?(provider_period = 30.0) ?sts ~sources ~engine ~trust ~obs () =
  if resources < 1 then invalid_arg "Fleet.create: resources must be >= 1";
  let directory = Grid_mds.Directory.create ?ttl:directory_ttl engine in
  let member i =
    let name = Printf.sprintf "%s-%d" name_prefix i in
    (* The member's whole stack records through a resource-scoped handle:
       every event and metric it emits carries [resource=<name>], which
       is what lets the safety monitor judge epoch freshness per member
       and the metrics dashboard break the fleet down by site. *)
    let obs = Grid_obs.Obs.scoped obs [ ("resource", name) ] in
    (* Each member compiles its own index, so epochs advance
       independently. *)
    let pep = Site.pep ~obs ~rebac (sources ()) in
    let network =
      (* Only fault-injected members need their own network; each gets an
         independent fault stream so one seed partitions members
         differently. *)
      Option.map
        (fun profile ->
          Grid_sim.Network.create ~faults:profile ~fault_seed:(fault_seed + (31 * i))
            engine)
        faults
    in
    let store =
      if store then begin
        let disk = Grid_sim.Disk.create ~seed:(fault_seed + 29 + (101 * i)) () in
        Some (Grid_store.Store.create ~obs ~disk ~name ())
      end
      else None
    in
    (* Tokenized fleet: every member validates tokens against its own
       revocation view before its policy engine sees the query. *)
    let site =
      Site.resource ?queues ~nodes ~cpus_per_node ~gridmap ?dynamic_accounts ?network
        ?request_timeout ?authz_cache ?store ?sts ~pep ~name ~engine ~trust ~obs ()
    in
    let provider =
      Grid_mds.Provider.attach ~period:provider_period ~site:name ~directory site.resource
    in
    { name; site; pep; provider }
  in
  let members = Array.init resources member in
  let broker =
    Grid_mds.Broker.create ?precheck ~seed ?breaker_threshold ?breaker_cooldown ~obs
      ~directory
      (Array.to_list (Array.map (fun m -> m.site.resource) members))
  in
  let routes = Hashtbl.create 256 in
  { engine; obs; directory; broker; members; routes; sources; seed }

let size t = Array.length t.members
let members t = Array.to_list t.members
let member t i = t.members.(i)
let directory t = t.directory
let broker t = t.broker
let engine t = t.engine
let seed t = t.seed

let member_named t name =
  let found = ref None in
  Array.iter (fun m -> if m.name = name then found := Some m) t.members;
  !found

let member_name m = m.name
let member_resource m = m.site.resource
let member_cache m = m.site.cache
let member_store m = Grid_gram.Resource.store m.site.resource
let member_validator m = m.site.validator
let member_epoch m = m.pep.epoch ()
let member_publications m = Grid_mds.Provider.publications m.provider

let routed_jobs t = Hashtbl.length t.routes

let count t ?(by = 1.0) ~labels name =
  if Grid_obs.Obs.enabled t.obs then Grid_obs.Obs.incr t.obs ~by ~labels name

(* Route a live job and drop the route at its terminal state, keeping
   the table O(live jobs). The trim watches the job on the member's LRM
   directly: it needs no durable store (the [job.terminal] event) and
   sends nothing over the simulated network (a GRAM callback would).
   Finished jobs are not routed; [locate] probes for them. *)
let record_route t m contact =
  match
    Option.bind (Grid_gram.Resource.find_jmi m.site.resource contact)
      Grid_gram.Job_manager.lrm_job_id
  with
  | None -> ()
  | Some job -> begin
    match Grid_lrm.Lrm.query m.site.lrm job with
    | Ok { Grid_lrm.Lrm.job_state; _ } when not (Grid_lrm.Lrm.is_terminal job_state) ->
      Hashtbl.replace t.routes contact m.name;
      Grid_lrm.Lrm.watch m.site.lrm job (fun (Grid_lrm.Lrm.State_changed { job; _ }) ->
          if Grid_lrm.Lrm.is_terminal job.Grid_lrm.Lrm.state then
            Hashtbl.remove t.routes contact)
    | Ok _ | Error _ -> ()
  end

(* Find the member that owns a contact: the route table first, then a
   probe across JMI tables (restored jobs, out-of-band submissions). *)
let locate t ~contact =
  let resolved =
    match Hashtbl.find_opt t.routes contact with
    | Some name -> member_named t name
    | None -> None
  in
  match resolved with
  | Some m -> Some m
  | None ->
    let found = ref None in
    Array.iter
      (fun m ->
        if
          !found = None
          && Option.is_some (Grid_gram.Resource.find_jmi m.site.resource contact)
        then begin
          record_route t m contact;
          found := Some m
        end)
      t.members;
    !found

(* Synchronous placement: the broker's engine-pumping path. Usable from
   outside the simulation only (it drives the engine to completion). *)
let submit_sync t ~identity ~rsl =
  match Grid_mds.Broker.submit t.broker ~identity ~rsl with
  | Error _ as e -> e
  | Ok (site, reply) ->
    (match member_named t site with
    | Some m -> record_route t m reply.Grid_gram.Protocol.job_contact
    | None -> ());
    Ok (site, reply)

(* Asynchronous placement: usable from inside engine callbacks (workload
   arrival events). Ranks candidates through the broker's pure [select],
   then tries them in order over the network; a timeout falls through to
   the next candidate and feeds that site's breaker, any answer — even a
   denial — stops the fall-through (the job's problem, not the
   fleet's). *)
let submit t ~identity ~rsl ~reply =
  match Grid_rsl.Job.of_string rsl with
  | Error e -> reply (Error (Rejected (Grid_rsl.Job.error_to_string e)))
  | Ok job -> begin
    match Grid_mds.Broker.select t.broker ~job with
    | [] -> reply (Error Unplaceable)
    | candidates ->
      let rec attempt timeouts = function
        | [] -> reply (Error (Unreachable (List.rev timeouts)))
        | resource :: rest ->
          let site = Grid_gram.Resource.name resource in
          let credential =
            Grid_gsi.Credential.of_identity identity
              ~challenge:(Grid_gram.Resource.new_challenge resource)
          in
          Grid_gram.Resource.submit resource ~credential ~rsl ~reply:(function
            | Error (Grid_gram.Protocol.Request_timeout _ as e) ->
              Grid_mds.Broker.observe t.broker ~site `Timeout;
              count t ~labels:[ ("resource", site); ("outcome", "timeout") ]
                "fleet_submissions_total";
              attempt ((site, e) :: timeouts) rest
            | Ok r ->
              Grid_mds.Broker.observe t.broker ~site `Answered;
              (match member_named t site with
              | Some m -> record_route t m r.Grid_gram.Protocol.job_contact
              | None -> ());
              count t ~labels:[ ("resource", site); ("outcome", "accepted") ]
                "fleet_submissions_total";
              reply (Ok (site, r))
            | Error e ->
              Grid_mds.Broker.observe t.broker ~site `Answered;
              count t ~labels:[ ("resource", site); ("outcome", "refused") ]
                "fleet_submissions_total";
              reply (Error (Site_error (site, e))))
      in
      attempt [] candidates
  end

(* Routed third-party management: any member's jobtag grant works
   against any member's jobs — the fleet finds the owner, the owner's
   PEP decides. Challenges are per-gatekeeper, so a caller that wants a
   credential on the request but cannot know the owner up front (e.g. a
   tokenized population workload) supplies [credential_for], which mints
   one against the located member's resource. *)
let manage ?timeout ?credential_for t ~requester ?credential ~contact action ~reply =
  match locate t ~contact with
  | None -> reply (Error (Grid_gram.Protocol.Unknown_job contact))
  | Some m ->
    count t ~labels:[ ("resource", m.name) ] "fleet_management_routed_total";
    let credential =
      match (credential, credential_for) with
      | (Some _ as c), _ | c, None -> c
      | None, Some mint -> mint m.site.resource
    in
    Grid_gram.Resource.manage ?timeout m.site.resource ~requester ?credential ~contact
      action ~reply

let manage_sync t ~requester ?credential ~contact action =
  match locate t ~contact with
  | None -> Error (Grid_gram.Protocol.Unknown_job contact)
  | Some m ->
    count t ~labels:[ ("resource", m.name) ] "fleet_management_routed_total";
    Grid_gram.Resource.manage_direct m.site.resource ~requester ?credential ~contact
      action

(* Batched management across the fleet: requests are grouped by owning
   member (members in index order, requests in arrival order within each
   group) and each group goes through that member's batch lane; results
   come back in request order. *)
let manage_many ?credential_for t (requests : Grid_gram.Resource.manage_request array) =
  let n = Array.length requests in
  let results =
    Array.make n (Error (Grid_gram.Protocol.Unknown_job "unrouted") : _ result)
  in
  let buckets = Hashtbl.create (Array.length t.members) in
  Array.iteri
    (fun i (r : Grid_gram.Resource.manage_request) ->
      match locate t ~contact:r.Grid_gram.Resource.contact with
      | None ->
        results.(i) <- Error (Grid_gram.Protocol.Unknown_job r.Grid_gram.Resource.contact)
      | Some m ->
        let tail = try Hashtbl.find buckets m.name with Not_found -> [] in
        Hashtbl.replace buckets m.name ((i, r) :: tail))
    requests;
  Array.iter
    (fun m ->
      match Hashtbl.find_opt buckets m.name with
      | None -> ()
      | Some pairs ->
        let pairs = Array.of_list (List.rev pairs) in
        count t
          ~by:(float_of_int (Array.length pairs))
          ~labels:[ ("resource", m.name) ]
          "fleet_management_routed_total";
        let group = Array.map snd pairs in
        let group =
          match credential_for with
          | None -> group
          | Some mint ->
            Array.map
              (fun (r : Grid_gram.Resource.manage_request) ->
                match r.Grid_gram.Resource.credential with
                | Some _ -> r
                | None -> { r with credential = mint m.site.resource r })
              group
        in
        let replies = Grid_gram.Resource.manage_many_direct m.site.resource group in
        Array.iteri (fun k (i, _) -> results.(i) <- replies.(k)) pairs)
    t.members;
  results

let reload_member t i =
  let m = t.members.(i) in
  m.pep.reload (t.sources ());
  m.pep.epoch ()

let reload t = Array.iteri (fun i _ -> ignore (reload_member t i)) t.members

let crash_member t i = Grid_gram.Resource.crash t.members.(i).site.resource
let recover_member t i = Grid_gram.Resource.recover t.members.(i).site.resource

let refresh t =
  Array.iter (fun m -> Grid_mds.Provider.publish_now m.provider) t.members

(* Stop the publish loops so [Engine.run] can settle in-flight work and
   terminate — self-rescheduling providers (and pull-mode token
   validators) otherwise keep the event queue non-empty forever. *)
let quiesce t =
  Array.iter
    (fun m ->
      Grid_mds.Provider.stop m.provider;
      Option.iter Grid_sts.Validator.stop m.site.validator)
    t.members
