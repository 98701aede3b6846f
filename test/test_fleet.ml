(* The fleet's differential test-suite.

   Five sections, each pinning a federation-level promise to the
   single-resource ground truth:

   - differential: a 1-member fleet reached through the broker must be
     decision- AND reason-equivalent to the plain single-resource Fusion
     world for identical submission scripts and management matrices,
     under a pinned seed matrix (1/7/42);
   - cross-resource jobtag: a jobtag granted at no particular site
     authorizes third-party management of tagged jobs wherever the fleet
     placed them, and the routed answer equals the owning member's local
     decision;
   - routing: the contact route table stays O(live jobs) without a
     durable store, and finished jobs still route through the JMI
     probe;
   - population: the subject synthesizer is a pure function of
     (seed, rank), zipfian in the documented shape, and O(1) resident;
   - broker churn: stale, deregistered and partitioned members are never
     selected, and the selection sequence is reproducible per seed. *)

open Core

let seeds = [ 1; 7; 42 ]
let population_size = 2_000

(* --- Outcome normalization ---------------------------------------------

   Both placement lanes collapse to one label: the plain client answers
   with a [submit_error]; the brokered lane wraps the very same error
   string as the single candidate's failure (see [Mds.Broker.submit]). *)

let submit_label = function
  | Ok (r : Gram.Protocol.submit_reply) ->
    "accepted as " ^ r.Gram.Protocol.submitted_as
  | Error e -> "refused: " ^ Gram.Protocol.submit_error_to_string e

let fleet_submit_label = function
  | Ok (_site, (r : Gram.Protocol.submit_reply)) ->
    "accepted as " ^ r.Gram.Protocol.submitted_as
  | Error (Mds.Broker.All_failed [ f ]) -> "refused: " ^ f.Mds.Broker.error
  | Error e -> "refused: " ^ Mds.Broker.error_to_string e

let replace_all ~sub ~by s =
  let n = String.length sub in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string buf by;
      i := !i + n
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* Management answers may quote the job contact; the two worlds mint
   contacts from independent id streams, so scrub it before comparing. *)
let manage_label ~contact result =
  let raw =
    match result with
    | Ok Gram.Protocol.Ack -> "ack"
    | Ok (Gram.Protocol.Job_status st) ->
      "status " ^ Gram.Protocol.job_state_to_string st.Gram.Protocol.state
    | Error e -> "denied: " ^ Gram.Protocol.management_error_to_string e
  in
  replace_all ~sub:contact ~by:"<job>" raw

(* --- The pinned submission script -------------------------------------

   Five Figure 3 cast entries covering both permit and deny branches of
   both policy sources, then a seeded zipfian slice of the population.
   The script is derived from a probe population with the same
   (seed, size) as each world's own, so ranks resolve to the same DNs
   everywhere. *)

type who =
  | Cast of string
  | Rank of int

let script ~seed =
  let probe = Population.create ~seed ~size:population_size in
  let rng = Util.Rng.create ~seed in
  let cast =
    [ (Cast Fusion.bo_liu,
       "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)");
      (Cast Fusion.bo_liu,
       "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=4)");
      (Cast Fusion.kate_keahey,
       "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)");
      (Cast Fusion.kate_keahey,
       "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(queue=reserved)");
      (Cast Fusion.outsider, "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)")
    ]
  in
  cast
  @ List.init 24 (fun _ ->
        let rank = Population.sample probe rng in
        (Rank rank, Population.template probe rng rank))

(* Both worlds advertise a [reserved] queue so the (queue=reserved)
   entry reaches the PEP everywhere: without it the broker would prune
   the job at the directory ("no resource matches") while the plain
   lane denies at the resource-owner policy — a reason divergence with
   the same verdict. The PEPs stay authoritative either way. *)
let queues =
  Lrm.Lrm.default_queues
  @ [ { Lrm.Lrm.queue_name = "reserved"; priority = 20; max_walltime = None } ]

let identity_for tb pop = function
  | Cast dn -> Testbed.add_user tb dn
  | Rank rank -> Population.identity pop ~ca:(Testbed.ca tb) ~now:(Testbed.now tb) rank

(* Kate's accepted NFC job is script entry 2 in both worlds. *)
let nfc_entry = 2

let plain_results ~seed entries =
  let pop = Population.create ~seed ~size:population_size in
  let w = Fusion.build ~nodes:16 ~queues ~population:pop () in
  let tb = w.Fusion.testbed in
  let outcomes =
    List.map
      (fun (who, rsl) ->
        let user = identity_for tb pop who in
        let client = Testbed.client tb ~user ~resource:w.Fusion.resource in
        let r = Gram.Client.submit_sync client ~rsl in
        let contact =
          match r with Ok ok -> Some ok.Gram.Protocol.job_contact | Error _ -> None
        in
        (submit_label r, contact))
      entries
  in
  (w, outcomes)

let fleet_results ~seed entries =
  let pop = Population.create ~seed ~size:population_size in
  let w = Fusion.build ~fleet:1 ~nodes:16 ~queues ~population:pop ~broker_seed:seed () in
  let fleet = Option.get w.Fusion.fleet in
  let tb = w.Fusion.testbed in
  let outcomes =
    List.map
      (fun (who, rsl) ->
        let identity = identity_for tb pop who in
        let r = Fleet.submit_sync fleet ~identity ~rsl in
        let contact =
          match r with
          | Ok (_, ok) -> Some ok.Gram.Protocol.job_contact
          | Error _ -> None
        in
        (fleet_submit_label r, contact))
      entries
  in
  (fleet, outcomes)

(* Denied requesters probe first (no state change), then the owner works
   the job over, then the VO admin exercises the canceled-job paths —
   the same order in both worlds, so errors stay comparable. *)
let requesters =
  [ ("bo", Fusion.bo_liu);
    ("outsider", Fusion.outsider);
    ("kate", Fusion.kate_keahey);
    ("vo-admin", Fusion.admin) ]

let actions =
  [ ("status", Gram.Protocol.Status);
    ("suspend", Gram.Protocol.Signal Gram.Protocol.Suspend);
    ("resume", Gram.Protocol.Signal Gram.Protocol.Resume);
    ("cancel", Gram.Protocol.Cancel) ]

let test_differential seed () =
  let entries = script ~seed in
  let wp, plain = plain_results ~seed entries in
  let fleet, fleeted = fleet_results ~seed entries in
  List.iteri
    (fun i ((a, _), (b, _)) ->
      Alcotest.(check string) (Printf.sprintf "seed %d entry %d" seed i) a b)
    (List.combine plain fleeted);
  (* the script must exercise both branches, or equivalence proves
     nothing *)
  Alcotest.(check bool) "script has accepts" true
    (List.exists (fun (l, _) -> String.starts_with ~prefix:"accepted" l) plain);
  Alcotest.(check bool) "script has refusals" true
    (List.exists (fun (l, _) -> String.starts_with ~prefix:"refused" l) plain);
  (* management matrix over kate's NFC job *)
  let contact_p = Option.get (snd (List.nth plain nfc_entry)) in
  let contact_f = Option.get (snd (List.nth fleeted nfc_entry)) in
  List.iter
    (fun (rq_name, rq) ->
      let requester = Gsi.Dn.parse rq in
      List.iter
        (fun (act_name, action) ->
          let a =
            Gram.Resource.manage_direct wp.Fusion.resource ~requester
              ~contact:contact_p action
            |> manage_label ~contact:contact_p
          in
          let b =
            Fleet.manage_sync fleet ~requester ~contact:contact_f action
            |> manage_label ~contact:contact_f
          in
          Alcotest.(check string)
            (Printf.sprintf "seed %d manage %s/%s" seed rq_name act_name)
            a b)
        actions)
    requesters

(* --- Cross-resource third-party management ----------------------------- *)

let test_cross_resource_jobtag seed () =
  let pop = Population.create ~seed ~size:population_size in
  let w = Fusion.build ~fleet:3 ~population:pop ~broker_seed:seed () in
  let fleet = Option.get w.Fusion.fleet in
  let tb = w.Fusion.testbed in
  let kate = Testbed.add_user tb Fusion.kate_keahey in
  let jobs =
    List.init 9 (fun i ->
        match
          Fleet.submit_sync fleet ~identity:kate
            ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"
        with
        | Ok (site, r) -> (site, r.Gram.Protocol.job_contact)
        | Error e ->
          Alcotest.failf "seed %d job %d unplaced: %s" seed i
            (Mds.Broker.error_to_string e))
  in
  let sites = List.sort_uniq compare (List.map fst jobs) in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: jobs spread over >= 2 members (got %d)" seed
       (List.length sites))
    true
    (List.length sites >= 2);
  (* the VO admin's NFC manage grant, held at no particular site,
     authorizes management wherever the broker placed the job — and the
     routed answer is the owning member's own *)
  let admin = Gsi.Dn.parse Fusion.admin in
  List.iter
    (fun (site, contact) ->
      let member = Option.get (Fleet.member_named fleet site) in
      let local =
        Gram.Resource.manage_direct (Fleet.member_resource member) ~requester:admin
          ~contact Gram.Protocol.Status
      in
      let routed = Fleet.manage_sync fleet ~requester:admin ~contact Gram.Protocol.Status in
      Alcotest.(check string)
        (Printf.sprintf "routed = local at %s" site)
        (manage_label ~contact local)
        (manage_label ~contact routed);
      match routed with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "admin jobtag manage refused at %s: %s" site
          (Gram.Protocol.management_error_to_string e))
    jobs;
  (* the denial is identical too: the outsider holds no jobtag anywhere *)
  let outsider = Gsi.Dn.parse Fusion.outsider in
  let site, contact = List.hd jobs in
  let member = Option.get (Fleet.member_named fleet site) in
  let local =
    Gram.Resource.manage_direct (Fleet.member_resource member) ~requester:outsider
      ~contact Gram.Protocol.Cancel
  in
  let routed = Fleet.manage_sync fleet ~requester:outsider ~contact Gram.Protocol.Cancel in
  Alcotest.(check string) "outsider denied identically" (manage_label ~contact local)
    (manage_label ~contact routed);
  match routed with
  | Error (Gram.Protocol.Not_authorized _) -> ()
  | Error e ->
    Alcotest.failf "wrong denial class: %s" (Gram.Protocol.management_error_to_string e)
  | Ok _ -> Alcotest.fail "outsider must not cancel"

(* --- Route table stays O(live jobs) -------------------------------------- *)

let live_jmis fleet =
  List.fold_left
    (fun acc m ->
      List.fold_left
        (fun acc jmi ->
          match Gram.Job_manager.status jmi with
          | Ok { Gram.Protocol.state = Pending | Active | Suspended; _ } -> acc + 1
          | Ok _ | Error _ -> acc)
        acc
        (Gram.Resource.jobs (Fleet.member_resource m)))
    0 (Fleet.members fleet)

(* A storeless fleet emits no job.terminal events, so route trimming
   cannot hang off the event bus: the fleet watches each routed job on
   its member's LRM. A finished job's contact still reaches its owner
   through the JMI probe. *)
let test_routes_trimmed_without_store () =
  let pop = Population.create ~seed:42 ~size:population_size in
  let w = Fusion.build ~fleet:4 ~population:pop () in
  let fleet = Option.get w.Fusion.fleet in
  let stats =
    Workload.run_population ~fleet ~population:pop ~ca:(Testbed.ca w.Fusion.testbed)
      { Workload.default_population_config with Workload.pop_job_count = 400 }
  in
  Alcotest.(check bool) "the campaign placed jobs" true
    (stats.Workload.tally.Workload.accepted > 50);
  let live = live_jmis fleet in
  Alcotest.(check bool)
    (Printf.sprintf "routed_jobs %d <= live JMIs %d" (Fleet.routed_jobs fleet) live)
    true
    (Fleet.routed_jobs fleet <= live);
  let owner, jmi =
    List.find_map
      (fun m ->
        List.find_map
          (fun jmi ->
            match Gram.Job_manager.status jmi with
            | Ok { Gram.Protocol.state = Done; _ } -> Some (m, jmi)
            | Ok _ | Error _ -> None)
          (Gram.Resource.jobs (Fleet.member_resource m)))
      (Fleet.members fleet)
    |> Option.get
  in
  let contact = Gram.Job_manager.contact jmi in
  let requester = Gram.Job_manager.owner jmi in
  Alcotest.(check (option string))
    "finished job located at its owner" (Some (Fleet.member_name owner))
    (Option.map Fleet.member_name (Fleet.locate fleet ~contact));
  let local =
    Gram.Resource.manage_direct (Fleet.member_resource owner) ~requester ~contact
      Gram.Protocol.Status
  in
  let routed = Fleet.manage_sync fleet ~requester ~contact Gram.Protocol.Status in
  Alcotest.(check string) "routed = local for a finished job"
    (manage_label ~contact local) (manage_label ~contact routed);
  match routed with
  | Error (Gram.Protocol.Unknown_job _) -> Alcotest.fail "finished job unroutable"
  | Ok _ | Error _ -> ()

(* --- Population synthesizer properties --------------------------------- *)

let qcheck_dn_deterministic =
  QCheck.Test.make ~name:"dn is a pure function of (seed, rank)" ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 0 999))
    (fun (seed, rank) ->
      let p1 = Population.create ~seed ~size:1_000 in
      let p2 = Population.create ~seed ~size:1_000 in
      Population.dn p1 rank = Population.dn p2 rank
      && Population.organization p1 = Population.organization p2
      && Population.jobtag p1 rank = Population.jobtag p2 rank)

let qcheck_dn_distinct =
  QCheck.Test.make ~name:"distinct ranks get distinct DNs" ~count:200
    QCheck.(triple (int_range 0 1000) (int_range 0 999) (int_range 0 999))
    (fun (seed, r1, r2) ->
      QCheck.assume (r1 <> r2);
      let p = Population.create ~seed ~size:1_000 in
      Population.dn p r1 <> Population.dn p r2)

let qcheck_sample_in_range =
  QCheck.Test.make ~name:"sample stays in [0, size)" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 1 10_000))
    (fun (seed, size) ->
      let p = Population.create ~seed ~size in
      let rng = Util.Rng.create ~seed in
      List.for_all
        (fun r -> 0 <= r && r < size)
        (List.init 100 (fun _ -> Population.sample p rng)))

(* Zipf(s=1) over 10^5 subjects: P(rank < 10) = ln 11 / ln(N+1) ~ 0.21,
   so a 10-wide head band must hold a fifth of the stream while the
   distinct-subject count stays far beyond any per-member cache. *)
let test_zipf_shape seed () =
  let size = 100_000 in
  let draws = 10_000 in
  let p = Population.create ~seed ~size in
  let rng = Util.Rng.create ~seed:(seed + 1) in
  let counts = Hashtbl.create 1024 in
  for _ = 1 to draws do
    let r = Population.sample p rng in
    Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r))
  done;
  let count r = Option.value ~default:0 (Hashtbl.find_opt counts r) in
  let band lo n =
    List.fold_left (fun acc i -> acc + count (lo + i)) 0 (List.init n Fun.id)
  in
  let head_freq = float_of_int (band 0 10) /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d head mass %.3f within [0.15, 0.30]" seed head_freq)
    true
    (head_freq >= 0.15 && head_freq <= 0.30);
  Alcotest.(check bool) "rank 0 dominates a 10-wide band at rank 1000" true
    (count 0 > band 1_000 10);
  Alcotest.(check bool)
    (Printf.sprintf "seed %d distinct subjects %d > 1500" seed (Hashtbl.length counts))
    true
    (Hashtbl.length counts > 1_500)

(* The synthesizer holds no per-user state: drawing and rendering a
   subject allocates a bounded number of words, and creating a
   million-subject population costs the same as a hundred-subject one. *)
let test_sampler_allocation_ceiling () =
  let p = Population.create ~seed:42 ~size:1_000_000 in
  let rng = Util.Rng.create ~seed:7 in
  ignore (Sys.opaque_identity (Population.dn p (Population.sample p rng)));
  let iters = 20_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (Population.dn p (Population.sample p rng)))
  done;
  let per_iter = (Gc.minor_words () -. before) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per draw+render under the 512 ceiling" per_iter)
    true (per_iter <= 512.0)

let create_words size =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Population.create ~seed:11 ~size));
  Gc.minor_words () -. before

let test_create_independent_of_size () =
  let small = create_words 100 in
  let big = create_words 1_000_000 in
  Alcotest.(check bool)
    (Printf.sprintf "create cost: %.0f words at 10^2 vs %.0f at 10^6" small big)
    true
    (Float.abs (big -. small) <= 64.0)

(* --- Broker selection under churn --------------------------------------- *)

let job_of rsl =
  match Rsl.Job.of_string rsl with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad rsl: %s" (Rsl.Job.error_to_string e)

let plan_names broker ~job = List.map Gram.Resource.name (Mds.Broker.plan broker ~job)

let permissive_site tb ~name ~nodes ?network ?request_timeout () =
  let gridmap = Gsi.Gridmap.parse (Printf.sprintf "%S kate\n" Fusion.kate_keahey) in
  Testbed.make_resource tb ~name ~nodes ~cpus_per_node:4 ~gridmap ?network
    ?request_timeout
    ~backend:(Custom Callout.Callout.permit_all)

let test_broker_skips_stale_and_deregistered () =
  let tb = Testbed.create () in
  let engine = Testbed.engine tb in
  let a = permissive_site tb ~name:"site-a" ~nodes:2 () in
  let b = permissive_site tb ~name:"site-b" ~nodes:2 () in
  let dir = Mds.Directory.create ~ttl:60.0 engine in
  let _pa = Mds.Provider.attach ~period:20.0 ~site:"east" ~directory:dir a in
  let pb = Mds.Provider.attach ~period:20.0 ~site:"west" ~directory:dir b in
  let broker = Mds.Broker.create ~seed:42 ~directory:dir [ a; b ] in
  let job = job_of "&(executable=x)" in
  Alcotest.(check (list string))
    "both fresh members planned" [ "site-a"; "site-b" ]
    (List.sort compare (plan_names broker ~job));
  (* b's provider stops: once past the TTL it must never be selected *)
  Mds.Provider.stop pb;
  Grid_sim.Engine.run_until engine 200.0;
  for _ = 1 to 10 do
    Alcotest.(check (list string)) "stale member never selected" [ "site-a" ]
      (plan_names broker ~job)
  done;
  (* deregistration removes the last member: plans empty, submit refuses *)
  Mds.Directory.deregister dir "site-a";
  Alcotest.(check (list string)) "deregistered member never selected" []
    (plan_names broker ~job);
  let kate = Testbed.add_user tb Fusion.kate_keahey in
  match Mds.Broker.submit broker ~identity:kate ~rsl:"&(executable=x)" with
  | Error Mds.Broker.No_candidates -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mds.Broker.error_to_string e)
  | Ok (site, _) -> Alcotest.failf "selected vanished member %s" site

let test_broker_opens_breaker_on_partition () =
  let tb = Testbed.create () in
  let engine = Testbed.engine tb in
  let far_net = Sim.Network.create ~seed:3 engine in
  let far =
    permissive_site tb ~name:"far" ~nodes:8 ~network:far_net ~request_timeout:0.25 ()
  in
  let near = permissive_site tb ~name:"near" ~nodes:1 () in
  let dir = Mds.Directory.create engine in
  let _pf = Mds.Provider.attach ~period:30.0 ~site:"x" ~directory:dir far in
  let _pn = Mds.Provider.attach ~period:30.0 ~site:"x" ~directory:dir near in
  let broker =
    Mds.Broker.create ~seed:1 ~breaker_threshold:2 ~breaker_cooldown:3600.0
      ~directory:dir [ far; near ]
  in
  let job = job_of "&(executable=x)" in
  (match plan_names broker ~job with
  | "far" :: _ -> ()
  | plan -> Alcotest.failf "expected far ranked first, got [%s]" (String.concat "; " plan));
  Sim.Network.partition far_net ~link:"client->resource";
  let kate = Testbed.add_user tb Fusion.kate_keahey in
  (* two submissions time out against far and fall through to near,
     tripping far's breaker *)
  for i = 1 to 2 do
    match Mds.Broker.submit broker ~identity:kate ~rsl:"&(executable=x)" with
    | Ok (site, _) -> Alcotest.(check string) (Printf.sprintf "fall-through %d" i) "near" site
    | Error e -> Alcotest.failf "fall-through failed: %s" (Mds.Broker.error_to_string e)
  done;
  (match Mds.Broker.breaker_state broker "far" with
  | Some Util.Retry.Breaker.Open -> ()
  | Some st -> Alcotest.failf "breaker %s, not open" (Util.Retry.Breaker.state_to_string st)
  | None -> Alcotest.fail "far unknown to the broker");
  (* while open, the partitioned member is planned around entirely *)
  for _ = 1 to 5 do
    Alcotest.(check (list string)) "partitioned member skipped" [ "near" ]
      (plan_names broker ~job)
  done

let test_broker_selection_reproducible_per_seed () =
  let sequence seed =
    let tb = Testbed.create () in
    let engine = Testbed.engine tb in
    let sites =
      List.init 3 (fun i -> permissive_site tb ~name:(Printf.sprintf "eq-%d" i) ~nodes:2 ())
    in
    let dir = Mds.Directory.create engine in
    List.iter
      (fun r -> ignore (Mds.Provider.attach ~period:30.0 ~site:"x" ~directory:dir r))
      sites;
    let broker = Mds.Broker.create ~seed ~directory:dir sites in
    let job = job_of "&(executable=x)" in
    List.init 8 (fun _ -> plan_names broker ~job)
  in
  List.iter
    (fun seed ->
      let s1 = sequence seed in
      let s2 = sequence seed in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "seed %d plan sequence reproducible" seed)
        s1 s2;
      (* equal-capacity ties rotate from one plan to the next *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d ties rotate across plans" seed)
        true
        (List.length (List.sort_uniq compare s1) >= 2))
    seeds;
  Alcotest.(check bool) "seeds differentiate the rotation" true
    (sequence 1 <> sequence 42)

let () =
  Alcotest.run "grid_fleet"
    [ ( "differential",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick
              (test_differential seed))
          seeds );
      ( "cross-resource jobtag",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick
              (test_cross_resource_jobtag seed))
          seeds );
      ( "routing",
        [ Alcotest.test_case "routes trimmed without a store" `Quick
            test_routes_trimmed_without_store ] );
      ( "population",
        [ QCheck_alcotest.to_alcotest qcheck_dn_deterministic;
          QCheck_alcotest.to_alcotest qcheck_dn_distinct;
          QCheck_alcotest.to_alcotest qcheck_sample_in_range ]
        @ List.map
            (fun seed ->
              Alcotest.test_case (Printf.sprintf "zipf shape seed %d" seed) `Quick
                (test_zipf_shape seed))
            seeds
        @ [ Alcotest.test_case "sampler allocation ceiling" `Quick
              test_sampler_allocation_ceiling;
            Alcotest.test_case "create cost independent of size" `Quick
              test_create_independent_of_size ] );
      ( "broker churn",
        [ Alcotest.test_case "stale and deregistered members" `Quick
            test_broker_skips_stale_and_deregistered;
          Alcotest.test_case "partitioned member trips breaker" `Quick
            test_broker_opens_breaker_on_partition;
          Alcotest.test_case "selection reproducible per seed" `Quick
            test_broker_selection_reproducible_per_seed ] ) ]
