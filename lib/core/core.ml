(* Public facade: fine-grain authorization for grid resource management.

   Downstream users program against this module. It re-exports the
   subsystem libraries under stable names and provides [Testbed], a
   builder that assembles a complete simulated grid — CA, trust, VO,
   users, GRAM resource with a chosen authorization backend — in a few
   calls. The examples, integration tests and benchmarks are all written
   on top of it. *)

module Util = Grid_util
module Crypto = Grid_crypto
module Sim = Grid_sim
module Gsi = Grid_gsi
module Rsl = Grid_rsl
module Policy = Grid_policy
module Callout = Grid_callout
module Vo = Grid_vo
module Cas = Grid_cas
module Akenti = Grid_akenti
module Lrm = Grid_lrm
module Accounts = Grid_accounts
module Gram = Grid_gram
module Mds = Grid_mds
module Audit = Grid_audit
module Obs = Grid_obs
module Store = Grid_store
module Rebac = Grid_rebac
module Sts = Grid_sts

module Workload = Workload
module Soak = Soak
module Population = Population
module Fleet = Fleet

(** Which policy evaluation point backs the extended GRAM mode. *)
type backend =
  | Baseline
    (** unmodified GT2: gridmap-only authorization, owner-only management *)
  | Flat_file of Grid_policy.Combine.source list
    (** the prototype's plain-text policies (resource owner + VO) *)
  | Rebac of Grid_rebac.Pep.t
    (** the relationship-based (Zanzibar-style) PEP: the same policy
        sources compiled to a tuple graph, decisions at the store's
        head snapshot *)
  | Custom of Grid_callout.Callout.t
    (** any callout (Akenti adapter, CAS PEP, chains, fault injectors) *)

module Testbed = struct
  type t = {
    engine : Grid_sim.Engine.t;
    ca : Grid_gsi.Ca.t;
    trust : Grid_gsi.Ca.Trust_store.store;
    obs : Grid_obs.Obs.t;
    mutable users : (string * Grid_gsi.Identity.t) list;
  }

  (* Fresh world with deterministic ids. The process-global keystore is
     deliberately NOT reset: several worlds can coexist (the benchmark
     harness builds one per backend), and keypair derivation is
     deterministic in the seed material, so re-registration is
     idempotent. *)
  let create () =
    Grid_util.Ids.reset ();
    let engine = Grid_sim.Engine.create () in
    let ca =
      Grid_gsi.Ca.create ~now:(Grid_sim.Engine.now engine) "/O=Grid/CN=Testbed CA"
    in
    let trust = Grid_gsi.Ca.Trust_store.create () in
    Grid_gsi.Ca.Trust_store.add trust (Grid_gsi.Ca.certificate ca);
    { engine; ca; trust; obs = Grid_obs.Obs.of_engine engine; users = [] }

  let engine t = t.engine
  let ca t = t.ca
  let trust t = t.trust
  let obs t = t.obs
  let now t = Grid_sim.Engine.now t.engine

  let add_user t dn_string =
    let identity =
      Grid_gsi.Identity.create ~ca:t.ca ~now:(Grid_sim.Engine.now t.engine) dn_string
    in
    t.users <- (dn_string, identity) :: t.users;
    identity

  let user t dn_string =
    match List.assoc_opt dn_string t.users with
    | Some identity -> identity
    | None -> invalid_arg ("Testbed.user: unknown user " ^ dn_string)

  let make_resource ?(name = "resource") ?nodes ?cpus_per_node ?queues ?gridmap
      ?dynamic_accounts ?gatekeeper_pep ?allocation ?network ?request_timeout ?authz_cache
      ?store ?sts ~backend t =
    let pep, mode =
      match backend with
      | Baseline -> (None, None)
      | Custom authorization -> (None, Some (Grid_gram.Mode.extended authorization))
      | Flat_file sources -> (Some (Site.pep ~obs:t.obs ~rebac:false sources), None)
      | Rebac p -> (Some (Site.rebac_pep p), None)
    in
    (Site.resource ?queues ?nodes ?cpus_per_node ?gridmap ?dynamic_accounts ?gatekeeper_pep
       ?allocation ?network ?request_timeout ?authz_cache ?store ?sts ?pep ?mode ~name
       ~engine:t.engine ~trust:t.trust ~obs:t.obs ())
      .resource

  let client _t ~user ~resource =
    Grid_gram.Client.create ~identity:user ~resource ()

  let run t = Grid_sim.Engine.run t.engine
  let run_for t seconds = Grid_sim.Engine.run_until t.engine (now t +. seconds)
end

(** The National Fusion Collaboratory world of the paper's use case: one
    VO with developer/analyst/admin groups, the Figure 3 members, and a
    resource enforcing resource-owner + VO policy through the flat-file
    PEP. Examples, integration tests and benches share it. *)
module Fusion = struct
  include Fusion_world

  type world = {
    testbed : Testbed.t;
    vo : Grid_vo.Vo.t;
    resource : Grid_gram.Resource.t;
    bo : Grid_gram.Client.t;
    kate : Grid_gram.Client.t;
    vo_admin : Grid_gram.Client.t;
    fleet : Fleet.t option;
    sts : Grid_sts.Service.t option;
        (** the token service when the world runs tokenized ([?sts]) *)
  }

  let build ?(backend = `Flat_file) ?(nodes = 4) ?(cpus_per_node = 8) ?queues ?faults
      ?(fault_seed = 1299709) ?request_timeout ?authz_cache ?(store = false)
      ?snapshot_every ?fleet ?population ?broker_seed ?sts () =
    (* Only the self-hosted backends replicate per fleet member. *)
    if Option.is_some fleet
       && ((backend <> `Flat_file && backend <> `Rebac) || Option.is_some snapshot_every)
    then
      invalid_arg "Fusion.build: a fleet replicates the flat-file or rebac backend only";
    let testbed = Testbed.create () in
    let engine = Testbed.engine testbed and obs = Testbed.obs testbed in
    let vo = build_vo () in
    (* Combination is conjunctive with per-source default-deny, so the
       population merges INTO both sources (owner statements into
       resource-owner, community grants into the VO's) — a third
       stand-alone source would deny the Figure 3 cast and vice versa.
       The plain world and every fleet member enforce the same sources;
       the differential fleet suite pins the two paths against each
       other. *)
    let sources () =
      match population with
      | None -> policy_sources vo
      | Some p ->
        [ Grid_policy.Combine.source ~name:"resource-owner"
            (resource_owner_policy () @ Population.owner_policy p);
          Grid_policy.Combine.source ~name:(Grid_vo.Vo.name vo)
            (Grid_vo.Vo.compile_policy vo @ Population.policy p) ]
    in
    (* The population's unmapped DNs lease dynamic accounts; the Figure 3
       cast keeps its static gridmap entries. *)
    let dynamic_accounts = Option.map (fun p -> min (Population.size p) 8192) population in
    let gridmap = Grid_gsi.Gridmap.parse gridmap_text in
    (* Token mode: one service with the default permissive relation —
       the policy engines stay the sole deniers, so tokenized worlds are
       differentially comparable to the proxy path. Clients present
       proxies carrying the token as an extension. *)
    let sts_service =
      Option.map
        (fun mode ->
          Grid_sts.Service.create ~name:"fusion-sts" ~mode ~engine
            ~trust:(Testbed.trust testbed) ~obs ())
        sts
    in
    let resource, fleet =
      match fleet with
      | Some resources ->
        (* Federated variant: [resources] full members behind one MDS. *)
        let fleet =
          Fleet.create ~resources ~name_prefix:"fusion-site" ~nodes ~cpus_per_node ?queues
            ~gridmap ?dynamic_accounts ~rebac:(backend = `Rebac) ?authz_cache
            ~store ?faults ~fault_seed ?request_timeout ?seed:broker_seed
            ?sts:sts_service ~sources ~engine ~trust:(Testbed.trust testbed) ~obs ()
        in
        (Fleet.member_resource (Fleet.member fleet 0), Some fleet)
      | None ->
        (* [`Rebac] swaps the PEP for the relationship-based backend
           over the same policy sources; decisions are differentially
           pinned to the flat-file PEP's, so the world behaves
           identically. *)
        let backend =
          match backend with
          | `Baseline -> Baseline
          | `Flat_file -> Flat_file (sources ())
          | `Rebac -> Rebac (Grid_rebac.Pep.create ~obs (sources ()))
          | `Custom callout -> Custom callout
        in
        let network =
          Option.map
            (fun profile -> Grid_sim.Network.create ~faults:profile ~fault_seed engine)
            faults
        in
        (* The durable job-manager store: a simulated disk seeded off the
           fault seed (its own stream, independent of the network's),
           with journal-per-append durability and optional snapshot
           compaction. *)
        let store =
          if store || Option.is_some snapshot_every then begin
            let disk = Grid_sim.Disk.create ~seed:(fault_seed + 29) () in
            Some
              (Grid_store.Store.create ~obs ?snapshot_every ~disk ~name:"fusion-site" ())
          end
          else None
        in
        ( Testbed.make_resource testbed ~name:"fusion-site" ~nodes ~cpus_per_node ?queues
            ~gridmap ?dynamic_accounts ?network ?request_timeout ?authz_cache ?store
            ?sts:sts_service ~backend,
          None )
    in
    let mk dn =
      let identity = Testbed.add_user testbed dn in
      let user =
        match sts_service with
        | None -> identity
        | Some s -> begin
          match
            Grid_sts.Service.proxy_with_token s ~now:(Testbed.now testbed) identity
          with
          | Ok (proxy, _token) -> proxy
          | Error e ->
            invalid_arg
              ("Fusion.build: token exchange refused: "
              ^ Grid_sts.Service.exchange_error_to_string e)
        end
      in
      Testbed.client testbed ~user ~resource
    in
    { testbed;
      vo;
      resource;
      bo = mk bo_liu;
      kate = mk kate_keahey;
      vo_admin = mk admin;
      fleet;
      sts = sts_service }
end

let version = "1.0.0"
