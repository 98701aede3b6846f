(* Tests for grid_lrm: scheduling, lifecycle, suspension, walltime,
   priorities, invariants. *)

open Grid_sim

let make ?(nodes = 2) ?(cpus = 4) ?queues () =
  Grid_util.Ids.reset ();
  let engine = Engine.create () in
  let lrm = Grid_lrm.Lrm.create ?queues ~nodes ~cpus_per_node:cpus engine in
  (engine, lrm)

let spec ?(cpus = 1) ?(duration = 10.0) ?walltime ?queue () =
  { Grid_lrm.Lrm.cpus; duration; walltime_limit = walltime; queue }

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected LRM error: %s" (Grid_lrm.Lrm.error_to_string e)

let state_of lrm id = (ok (Grid_lrm.Lrm.query lrm id)).Grid_lrm.Lrm.job_state

let check_state msg lrm id expected =
  Alcotest.(check string) msg
    (Grid_lrm.Lrm.state_to_string expected)
    (Grid_lrm.Lrm.state_to_string (state_of lrm id))

let test_submit_runs_and_completes () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  check_state "starts immediately" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 5.0;
  check_state "still running" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 10.5;
  check_state "completed" lrm id Grid_lrm.Lrm.Completed;
  Alcotest.(check int) "cpus freed" 0 (Grid_lrm.Lrm.cpus_in_use lrm)

let test_queueing_when_full () =
  let engine, lrm = make ~nodes:1 ~cpus:2 () in
  let a = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:2 ~duration:10.0 ())) in
  let b = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:2 ~duration:5.0 ())) in
  check_state "a running" lrm a Grid_lrm.Lrm.Running;
  check_state "b pending" lrm b Grid_lrm.Lrm.Pending;
  Engine.run_until engine 10.5;
  check_state "a done" lrm a Grid_lrm.Lrm.Completed;
  check_state "b now running" lrm b Grid_lrm.Lrm.Running;
  Engine.run engine;
  check_state "b done" lrm b Grid_lrm.Lrm.Completed

let test_jobs_span_nodes () =
  let _, lrm = make ~nodes:2 ~cpus:4 () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:6 ~duration:5.0 ())) in
  check_state "6-cpu job spans two 4-cpu nodes" lrm id Grid_lrm.Lrm.Running;
  Alcotest.(check int) "six in use" 6 (Grid_lrm.Lrm.cpus_in_use lrm);
  Alcotest.(check bool) "invariant" true (Grid_lrm.Lrm.invariant_holds lrm)

let test_too_many_cpus_rejected () =
  let _, lrm = make ~nodes:1 ~cpus:2 () in
  match Grid_lrm.Lrm.submit lrm (spec ~cpus:3 ()) with
  | Error (Grid_lrm.Lrm.Too_many_cpus _) -> ()
  | _ -> Alcotest.fail "oversized job accepted"

let test_unknown_queue_rejected () =
  let _, lrm = make () in
  match Grid_lrm.Lrm.submit lrm (spec ~queue:"nope" ()) with
  | Error (Grid_lrm.Lrm.Unknown_queue "nope") -> ()
  | _ -> Alcotest.fail "unknown queue accepted"

let test_cancel_pending_and_running () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let a = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  let b = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  ignore (ok (Grid_lrm.Lrm.cancel lrm b));
  check_state "pending job cancelled" lrm b Grid_lrm.Lrm.Cancelled;
  ignore (ok (Grid_lrm.Lrm.cancel lrm a));
  check_state "running job cancelled" lrm a Grid_lrm.Lrm.Cancelled;
  Alcotest.(check int) "cpus freed" 0 (Grid_lrm.Lrm.cpus_in_use lrm);
  Engine.run engine;
  check_state "stays cancelled" lrm a Grid_lrm.Lrm.Cancelled;
  (* Cancelling again is an invalid transition. *)
  match Grid_lrm.Lrm.cancel lrm a with
  | Error (Grid_lrm.Lrm.Invalid_transition _) -> ()
  | _ -> Alcotest.fail "double cancel accepted"

let test_suspend_resume_preserves_progress () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  Engine.run_until engine 4.0;
  ignore (ok (Grid_lrm.Lrm.suspend lrm id));
  check_state "suspended" lrm id Grid_lrm.Lrm.Suspended;
  Alcotest.(check (float 1e-6)) "6s of compute left" 6.0
    (ok (Grid_lrm.Lrm.query lrm id)).Grid_lrm.Lrm.job_remaining;
  Alcotest.(check int) "cpus freed while suspended" 0 (Grid_lrm.Lrm.cpus_in_use lrm);
  Engine.run_until engine 100.0;
  check_state "stays suspended" lrm id Grid_lrm.Lrm.Suspended;
  ignore (ok (Grid_lrm.Lrm.resume lrm id));
  check_state "running again" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 105.9;
  check_state "not yet done" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 106.1;
  check_state "completed after remaining 6s" lrm id Grid_lrm.Lrm.Completed

let test_suspend_frees_capacity_for_other_jobs () =
  (* The SC02 scenario mechanics: suspending a long job lets a
     high-priority job run immediately. *)
  let engine, lrm = make ~nodes:1 ~cpus:2 () in
  let long = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:2 ~duration:1000.0 ())) in
  let urgent = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:2 ~duration:5.0 ())) in
  check_state "urgent waits" lrm urgent Grid_lrm.Lrm.Pending;
  ignore (ok (Grid_lrm.Lrm.suspend lrm long));
  check_state "urgent runs after suspension" lrm urgent Grid_lrm.Lrm.Running;
  Engine.run_until engine 6.0;
  check_state "urgent done" lrm urgent Grid_lrm.Lrm.Completed;
  ignore (ok (Grid_lrm.Lrm.resume lrm long));
  check_state "long resumes" lrm long Grid_lrm.Lrm.Running

let test_stale_completion_event_ignored () =
  (* Suspend before the original completion event fires: the stale event
     must not complete the job. *)
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  Engine.run_until engine 2.0;
  ignore (ok (Grid_lrm.Lrm.suspend lrm id));
  Engine.run_until engine 50.0;
  check_state "stale event did not complete the job" lrm id Grid_lrm.Lrm.Suspended

let test_walltime_kill () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:100.0 ~walltime:30.0 ())) in
  Engine.run_until engine 29.0;
  check_state "running before limit" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 31.0;
  match state_of lrm id with
  | Grid_lrm.Lrm.Killed _ -> ()
  | s -> Alcotest.failf "expected kill, got %s" (Grid_lrm.Lrm.state_to_string s)

let test_walltime_survives_suspension () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:100.0 ~walltime:30.0 ())) in
  Engine.run_until engine 20.0;
  ignore (ok (Grid_lrm.Lrm.suspend lrm id));
  Engine.run_until engine 500.0;
  ignore (ok (Grid_lrm.Lrm.resume lrm id));
  (* 20 s of the 30 s budget consumed; 10 left. *)
  Engine.run_until engine 509.0;
  check_state "within remaining budget" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 511.0;
  (match state_of lrm id with
  | Grid_lrm.Lrm.Killed _ -> ()
  | s -> Alcotest.failf "expected kill, got %s" (Grid_lrm.Lrm.state_to_string s))

let test_queue_walltime_cap () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:1e6 ~queue:"priority" ())) in
  (* default "priority" queue caps walltime at 7200 s *)
  Engine.run_until engine 7300.0;
  match state_of lrm id with
  | Grid_lrm.Lrm.Killed _ -> ()
  | s -> Alcotest.failf "expected queue-cap kill, got %s" (Grid_lrm.Lrm.state_to_string s)

let test_priority_queue_scheduled_first () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let _running = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  let batch = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  let urgent = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ~queue:"priority" ())) in
  Engine.run_until engine 10.5;
  check_state "priority queue preempts batch in queue order" lrm urgent Grid_lrm.Lrm.Running;
  check_state "batch still waits" lrm batch Grid_lrm.Lrm.Pending

let test_set_priority_reorders () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let _running = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  let first = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  let second = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  ignore (ok (Grid_lrm.Lrm.set_priority lrm second 5));
  Engine.run_until engine 10.5;
  check_state "boosted job overtakes" lrm second Grid_lrm.Lrm.Running;
  check_state "first-come job waits" lrm first Grid_lrm.Lrm.Pending

let test_events_observed () =
  let engine, lrm = make () in
  let transitions = ref [] in
  Grid_lrm.Lrm.on_event lrm (fun (Grid_lrm.Lrm.State_changed { job; _ }) ->
      transitions := Grid_lrm.Lrm.state_to_string job.Grid_lrm.Lrm.state :: !transitions);
  let _id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  Engine.run engine;
  Alcotest.(check (list string)) "observed lifecycle" [ "pending"; "running"; "completed" ]
    (List.rev !transitions)

let test_watch_per_job () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let log = ref [] in
  let note who (Grid_lrm.Lrm.State_changed { job; _ }) =
    log :=
      Printf.sprintf "%s %s %s" who job.Grid_lrm.Lrm.id
        (Grid_lrm.Lrm.state_to_string job.Grid_lrm.Lrm.state)
      :: !log
  in
  Grid_lrm.Lrm.on_event lrm (note "global");
  let a = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  let b = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  Grid_lrm.Lrm.watch lrm a (note "a-old");
  Grid_lrm.Lrm.watch lrm a (note "a-new");
  Grid_lrm.Lrm.watch lrm b (note "b");
  log := [];
  ignore (ok (Grid_lrm.Lrm.suspend lrm a));
  ignore (ok (Grid_lrm.Lrm.resume lrm a));
  Engine.run engine;
  (* A finished job is not watched, and its watchers are gone: a later
     job that reuses the id reaches only the global listener. *)
  Grid_lrm.Lrm.watch lrm a (note "a-late");
  Grid_util.Ids.reset ();
  let reused = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:1.0 ())) in
  Alcotest.(check string) "id reused" a reused;
  Engine.run engine;
  Alcotest.(check (list string)) "own job only, before global, newest first, until terminal"
    [ "a-new job-000001 suspended"; "a-old job-000001 suspended";
      "global job-000001 suspended";
      "b job-000002 running"; "global job-000002 running";
      "a-new job-000001 pending"; "a-old job-000001 pending"; "global job-000001 pending";
      "b job-000002 completed"; "global job-000002 completed";
      "a-new job-000001 running"; "a-old job-000001 running"; "global job-000001 running";
      "a-new job-000001 completed"; "a-old job-000001 completed";
      "global job-000001 completed";
      "global job-000001 pending"; "global job-000001 running";
      "global job-000001 completed" ]
    (List.rev !log)

let test_zero_duration_job () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:0.0 ())) in
  Engine.run engine;
  check_state "zero-duration job completes" lrm id Grid_lrm.Lrm.Completed

let qcheck_no_oversubscription =
  QCheck.Test.make ~name:"scheduler never oversubscribes cpus" ~count:60
    QCheck.(pair (int_range 1 50) small_int)
    (fun (njobs, seed) ->
      Grid_util.Ids.reset ();
      let engine = Engine.create () in
      let lrm = Grid_lrm.Lrm.create ~nodes:3 ~cpus_per_node:4 engine in
      let rng = Grid_util.Rng.create ~seed in
      let ok = ref true in
      Grid_lrm.Lrm.on_event lrm (fun _ ->
          if not (Grid_lrm.Lrm.invariant_holds lrm) then ok := false);
      for _ = 1 to njobs do
        let cpus = 1 + Grid_util.Rng.int rng 12 in
        let duration = Grid_util.Rng.float rng 50.0 in
        ignore
          (Grid_lrm.Lrm.submit lrm
             { Grid_lrm.Lrm.cpus; duration; walltime_limit = None; queue = None })
      done;
      Engine.run engine;
      !ok && Grid_lrm.Lrm.invariant_holds lrm && Grid_lrm.Lrm.cpus_in_use lrm = 0)

let qcheck_all_jobs_terminate =
  QCheck.Test.make ~name:"every accepted job reaches a terminal state" ~count:60
    QCheck.(pair (int_range 1 40) small_int)
    (fun (njobs, seed) ->
      Grid_util.Ids.reset ();
      let engine = Engine.create () in
      let lrm = Grid_lrm.Lrm.create ~nodes:2 ~cpus_per_node:4 engine in
      let rng = Grid_util.Rng.create ~seed in
      let ids = ref [] in
      for _ = 1 to njobs do
        let cpus = 1 + Grid_util.Rng.int rng 8 in
        let duration = Grid_util.Rng.float rng 20.0 in
        let walltime = if Grid_util.Rng.bool rng then Some (Grid_util.Rng.float rng 25.0) else None in
        match
          Grid_lrm.Lrm.submit lrm
            { Grid_lrm.Lrm.cpus; duration; walltime_limit = walltime; queue = None }
        with
        | Ok id -> ids := id :: !ids
        | Error _ -> ()
      done;
      Engine.run engine;
      List.for_all
        (fun id ->
          match Grid_lrm.Lrm.query lrm id with
          | Ok { Grid_lrm.Lrm.job_state = Completed | Killed _; _ } -> true
          | _ -> false)
        !ids)

let () =
  Alcotest.run "grid_lrm"
    [ ( "lifecycle",
        [ Alcotest.test_case "submit/run/complete" `Quick test_submit_runs_and_completes;
          Alcotest.test_case "queueing when full" `Quick test_queueing_when_full;
          Alcotest.test_case "spans nodes" `Quick test_jobs_span_nodes;
          Alcotest.test_case "too many cpus" `Quick test_too_many_cpus_rejected;
          Alcotest.test_case "unknown queue" `Quick test_unknown_queue_rejected;
          Alcotest.test_case "cancel" `Quick test_cancel_pending_and_running;
          Alcotest.test_case "zero duration" `Quick test_zero_duration_job;
          Alcotest.test_case "events" `Quick test_events_observed;
          Alcotest.test_case "per-job watch" `Quick test_watch_per_job ] );
      ( "suspension",
        [ Alcotest.test_case "suspend/resume progress" `Quick
            test_suspend_resume_preserves_progress;
          Alcotest.test_case "frees capacity" `Quick test_suspend_frees_capacity_for_other_jobs;
          Alcotest.test_case "stale completion" `Quick test_stale_completion_event_ignored ] );
      ( "walltime",
        [ Alcotest.test_case "kill at limit" `Quick test_walltime_kill;
          Alcotest.test_case "budget survives suspension" `Quick
            test_walltime_survives_suspension;
          Alcotest.test_case "queue cap" `Quick test_queue_walltime_cap ] );
      ( "priorities",
        [ Alcotest.test_case "priority queue first" `Quick test_priority_queue_scheduled_first;
          Alcotest.test_case "set_priority reorders" `Quick test_set_priority_reorders ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_no_oversubscription;
          QCheck_alcotest.to_alcotest qcheck_all_jobs_terminate ] ) ]
