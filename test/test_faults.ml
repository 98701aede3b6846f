(* Chaos suite: the full GRAM request path under injected network and
   backend faults. Every scenario is replayed for several pinned seeds
   and asserts *typed* outcomes — a fault may surface only as a refusal
   or a timeout, never as a hang, a lost reply, or a silent permit.

   The pinned seeds always run, so `dune runtest` is deterministic.
   Set FAULT_SEED=<n> to additionally replay the whole suite under one
   extra seed when hunting for new universes locally. *)

open Core

let pinned_seeds = [ 1; 7; 42 ]

let seeds =
  match Option.bind (Sys.getenv_opt "FAULT_SEED") int_of_string_opt with
  | Some s when not (List.mem s pinned_seeds) -> pinned_seeds @ [ s ]
  | _ -> pinned_seeds

let heavy =
  Sim.Network.Faults.profile ~drop:0.05 ~duplicate:0.02 ~delay_probability:0.2
    ~max_extra_delay:0.1 ()

let profiles (w : Fusion.world) =
  [ { Workload.identity = Gram.Client.identity w.Fusion.bo;
      rsl_templates =
        [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=30)";
          "&(executable=compiler)(directory=/sandbox/test)(jobtag=ADS)" ];
      weight = 1 };
    { Workload.identity = Gram.Client.identity w.Fusion.kate;
      rsl_templates =
        [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=60)" ];
      weight = 1 } ]

let chaos_config jobs =
  { Workload.job_count = jobs;
    arrival_rate = 10.0;
    management_probability = 0.4;
    management_batch = 1;
    seed = 23 }

let run_chaos ~fault_seed ?backend () =
  let w =
    Fusion.build ?backend ~nodes:8 ~cpus_per_node:8 ~faults:heavy ~fault_seed
      ~request_timeout:0.25 ()
  in
  let stats =
    Workload.run
      ~engine:(Testbed.engine w.Fusion.testbed)
      ~resource:w.Fusion.resource ~profiles:(profiles w) (chaos_config 200)
  in
  (w, stats)

(* Typed-outcome accounting under drops/partitions/duplicates: every
   submission resolves to exactly one of accepted / denied / timed out;
   the engine drains (no hung request holds a timer forever). *)
let test_typed_outcomes_no_hangs () =
  List.iter
    (fun fault_seed ->
      let w, s = run_chaos ~fault_seed () in
      let label fmt = Printf.sprintf ("seed %d: " ^^ fmt) fault_seed in
      Alcotest.(check int) (label "all jobs submitted") 200 s.Workload.submitted;
      Alcotest.(check int) (label "engine fully drained") 0
        (Grid_sim.Engine.pending (Testbed.engine w.Fusion.testbed));
      let resolved =
        s.Workload.accepted + s.Workload.denied_authorization + s.Workload.denied_other
      in
      (* timed_out counts both submit and management timeouts; every
         unresolved submission must be in there, and nothing beyond the
         issued management requests can be. *)
      Alcotest.(check bool) (label "no lost submissions") true
        (resolved + s.Workload.timed_out >= s.Workload.submitted);
      Alcotest.(check bool) (label "no surplus replies") true
        (resolved <= s.Workload.submitted
        && s.Workload.timed_out
           <= s.Workload.submitted - resolved + s.Workload.management_requests);
      (* Under 5% drop something must actually have been injected, or the
         suite is testing the happy path by accident. *)
      let network = Gram.Resource.network w.Fusion.resource in
      Alcotest.(check bool) (label "faults were injected") true
        (Sim.Network.messages_dropped network > 0))
    seeds

(* Determinism: the same fault seed replays the same universe. *)
let test_chaos_deterministic () =
  List.iter
    (fun fault_seed ->
      let snapshot (s : Workload.stats) =
        ( s.Workload.submitted,
          s.Workload.accepted,
          s.Workload.denied_authorization,
          s.Workload.denied_other,
          s.Workload.timed_out,
          s.Workload.management_requests,
          s.Workload.management_denied )
      in
      let _, first = run_chaos ~fault_seed () in
      let _, second = run_chaos ~fault_seed () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d replays identically" fault_seed)
        true
        (snapshot first = snapshot second))
    seeds

(* Fail-closed: with the PEP itself down (every callout a backend
   fault), nothing is ever admitted — faults deny, they never permit.
   No degradation combinator is applied, so backend faults surface as
   Authz_system_failure: refusal, never a silent permit. *)
let test_pep_outage_never_permits () =
  let sources = Fusion.policy_sources (Fusion.build_vo ()) in
  List.iter
    (fun fault_seed ->
      let rng = Util.Rng.create ~seed:(fault_seed + 17) in
      let backend =
        `Custom
          (Callout.Callout.flaky ~rng ~failure_probability:1.0
             (Callout.File_pep.of_sources sources))
      in
      let _, s = run_chaos ~fault_seed ~backend () in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: zero admissions during PEP outage" fault_seed)
        0 s.Workload.accepted;
      Alcotest.(check bool) "denials attributed to authorization" true
        (s.Workload.denied_authorization + s.Workload.denied_other + s.Workload.timed_out
        >= s.Workload.submitted - s.Workload.accepted))
    seeds

(* Retry honors its deadline: against a fully partitioned request hop,
   the retrying client gives up within the deadline in simulated time —
   backoff never pushes an attempt past it. *)
let test_retry_bounded_by_deadline () =
  List.iter
    (fun fault_seed ->
      let w =
        Fusion.build ~faults:(Sim.Network.Faults.profile ()) ~fault_seed
          ~request_timeout:0.25 ()
      in
      let engine = Testbed.engine w.Fusion.testbed in
      let reply =
        match
          Gram.Client.submit_sync w.Fusion.kate
            ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(simduration=600)"
        with
        | Ok r -> r
        | Error e ->
          Alcotest.failf "clean submit failed: %s" (Gram.Protocol.submit_error_to_string e)
      in
      let network = Gram.Resource.network w.Fusion.resource in
      Sim.Network.partition network ~link:"client->resource";
      List.iter
        (fun deadline ->
          let t0 = Grid_sim.Engine.now engine in
          (match
             Gram.Client.manage_with_retry_sync ~deadline w.Fusion.kate
               ~contact:reply.Gram.Protocol.job_contact Gram.Protocol.Status
           with
          | Error (Gram.Protocol.Request_timed_out _) -> ()
          | Ok _ -> Alcotest.fail "partitioned request must not succeed"
          | Error e ->
            Alcotest.failf "wrong error class: %s"
              (Gram.Protocol.management_error_to_string e));
          let elapsed = Grid_sim.Engine.now engine -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: %.2fs deadline held (took %.3fs)" fault_seed
               deadline elapsed)
            true (elapsed <= deadline))
        [ 0.3; 1.0; 5.0 ])
    seeds

(* Property: under an arbitrary generated fault schedule (lossy windows
   opening and closing over the run), the workload still resolves every
   request with a typed outcome and the engine drains. *)
let qcheck_fault_schedule =
  let schedule_gen =
    QCheck.Gen.(
      list_size (int_range 1 4)
        (triple (float_bound_inclusive 20.0) (float_bound_inclusive 0.3)
           (float_bound_inclusive 0.3)))
  in
  let arb =
    QCheck.make
      ~print:(fun sch ->
        String.concat "; "
          (List.map
             (fun (at, drop, dup) -> Printf.sprintf "(t=%.1f drop=%.2f dup=%.2f)" at drop dup)
             sch))
      schedule_gen
  in
  QCheck.Test.make ~name:"any fault schedule: typed outcomes, no hangs" ~count:25
    QCheck.(pair small_int arb)
    (fun (seed, schedule) ->
      let w =
        Fusion.build ~nodes:8 ~cpus_per_node:8
          ~faults:(Sim.Network.Faults.profile ())
          ~fault_seed:(seed + 1) ~request_timeout:0.25 ()
      in
      let network = Gram.Resource.network w.Fusion.resource in
      Sim.Network.apply_schedule network
        (List.map
           (fun (at, drop, dup) ->
             ( at,
               Sim.Network.Faults.profile ~drop ~duplicate:dup ~delay_probability:0.1
                 ~max_extra_delay:0.05 () ))
           schedule);
      let s =
        Workload.run
          ~engine:(Testbed.engine w.Fusion.testbed)
          ~resource:w.Fusion.resource ~profiles:(profiles w) (chaos_config 60)
      in
      let resolved =
        s.Workload.accepted + s.Workload.denied_authorization + s.Workload.denied_other
      in
      s.Workload.submitted = 60
      && Grid_sim.Engine.pending (Testbed.engine w.Fusion.testbed) = 0
      && resolved <= s.Workload.submitted
      && resolved + s.Workload.timed_out >= s.Workload.submitted
      && s.Workload.timed_out
         <= s.Workload.submitted - resolved + s.Workload.management_requests)

let () =
  Printf.printf "chaos seeds: %s\n%!" (String.concat ", " (List.map string_of_int seeds));
  Alcotest.run "grid_faults"
    [ ( "chaos",
        [ Alcotest.test_case "typed outcomes, no hangs" `Quick test_typed_outcomes_no_hangs;
          Alcotest.test_case "deterministic replay" `Quick test_chaos_deterministic;
          Alcotest.test_case "PEP outage never permits" `Quick test_pep_outage_never_permits;
          Alcotest.test_case "retry bounded by deadline" `Quick
            test_retry_bounded_by_deadline ] );
      ("schedules", [ QCheck_alcotest.to_alcotest qcheck_fault_schedule ]) ]
