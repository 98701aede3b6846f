(* Tests for grid_obs: metrics registry, span tracing, and the end-to-end
   instrumentation of the authorization critical path. *)

module Metrics = Grid_obs.Metrics
module Span = Grid_obs.Span
module Obs = Grid_obs.Obs

(* --- Metrics: counters & gauges ---------------------------------------- *)

let test_counter_basics () =
  let m = Metrics.create () in
  Metrics.inc m "requests_total";
  Metrics.inc m ~by:2.5 "requests_total";
  Alcotest.(check (float 1e-9)) "value" 3.5 (Metrics.counter_value m "requests_total");
  Alcotest.(check (float 1e-9)) "absent is 0" 0.0 (Metrics.counter_value m "nope")

let test_label_identity () =
  let m = Metrics.create () in
  Metrics.inc m ~labels:[ ("a", "1"); ("b", "2") ] "c_total";
  (* Same label set, different order: must address the same series. *)
  Metrics.inc m ~labels:[ ("b", "2"); ("a", "1") ] "c_total";
  Alcotest.(check (float 1e-9)) "order-insensitive" 2.0
    (Metrics.counter_value m ~labels:[ ("a", "1"); ("b", "2") ] "c_total");
  (* Different label values: distinct series. *)
  Metrics.inc m ~labels:[ ("a", "1"); ("b", "3") ] "c_total";
  Alcotest.(check (float 1e-9)) "distinct series" 1.0
    (Metrics.counter_value m ~labels:[ ("b", "3"); ("a", "1") ] "c_total");
  Alcotest.(check (float 1e-9)) "total over label sets" 3.0
    (Metrics.counter_total m "c_total")

let test_kind_conflict () =
  let m = Metrics.create () in
  Metrics.inc m "x";
  Alcotest.check_raises "counter as gauge"
    (Invalid_argument "Metrics: x is a counter, not re-registrable") (fun () ->
      Metrics.set m "x" 1.0)

let test_gauge () =
  let m = Metrics.create () in
  Metrics.set m "cpus" 7.0;
  Metrics.set m "cpus" 3.0;
  Alcotest.(check (float 1e-9)) "last write wins" 3.0 (Metrics.gauge_value m "cpus")

(* --- Metrics: histograms ----------------------------------------------- *)

let test_histogram_empty () =
  let m = Metrics.create () in
  Alcotest.(check bool) "no series -> None" true
    (Metrics.histogram_summary m "h" = None)

let test_histogram_bucket_boundaries () =
  let m = Metrics.create () in
  let buckets = [| 1.0; 2.0; 5.0 |] in
  (* Upper bounds are inclusive, Prometheus-style: 1.0 lands in le=1. *)
  List.iter (Metrics.observe m ~buckets "h") [ 1.0; 1.5; 2.0; 5.0; 7.0 ];
  let series = Metrics.dump m in
  let cumulative =
    match series with
    | [ { Metrics.series_data = Metrics.Histogram { buckets; _ }; _ } ] -> buckets
    | _ -> Alcotest.fail "expected one histogram series"
  in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "cumulative bucket counts (incl. +inf overflow)"
    [ (1.0, 1); (2.0, 3); (5.0, 4); (infinity, 5) ]
    cumulative;
  match Metrics.histogram_summary m "h" with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
    Alcotest.(check int) "count includes overflow" 5 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 16.5 s.Metrics.sum;
    Alcotest.(check (float 1e-9)) "max tracked exactly" 7.0 s.Metrics.max

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let buckets = [| 0.01; 0.1; 1.0 |] in
  (* 100 observations at ~0.05: p50 and p99 both interpolate within the
     (0.01, 0.1] bucket; everything is clamped to the observed max. *)
  for _ = 1 to 100 do
    Metrics.observe m ~buckets "h" 0.05
  done;
  match Metrics.histogram_summary m "h" with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
    Alcotest.(check bool) "p50 within bucket" true
      (s.Metrics.p50 > 0.01 && s.Metrics.p50 <= 0.1);
    Alcotest.(check bool) "p99 <= observed max" true (s.Metrics.p99 <= s.Metrics.max +. 1e-9)

let test_histogram_all_zero () =
  let m = Metrics.create () in
  for _ = 1 to 10 do
    Metrics.observe m "h" 0.0
  done;
  match Metrics.histogram_summary m "h" with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
    (* Zero-duration stages must report 0, not an interpolated sliver of
       the first bucket. *)
    Alcotest.(check (float 1e-9)) "p99 of zeros is 0" 0.0 s.Metrics.p99;
    Alcotest.(check (float 1e-9)) "max" 0.0 s.Metrics.max

let test_exposition () =
  let m = Metrics.create () in
  Metrics.inc m ~labels:[ ("outcome", "denied") ] "decisions_total";
  Metrics.observe m ~buckets:[| 1.0 |] "lat_seconds" 0.5;
  let prom = Metrics.to_prometheus m in
  let contains = Grid_util.Str_search.contains in
  Alcotest.(check bool) "TYPE line" true (contains prom "# TYPE decisions_total counter");
  Alcotest.(check bool) "labelled sample" true
    (contains prom "decisions_total{outcome=\"denied\"} 1");
  Alcotest.(check bool) "histogram _bucket" true
    (contains prom "lat_seconds_bucket{le=\"1.0\"} 1");
  Alcotest.(check bool) "histogram _count" true (contains prom "lat_seconds_count 1");
  let json = Metrics.to_json m in
  Alcotest.(check bool) "json mentions series" true (contains json "\"decisions_total\"")

(* --- Spans -------------------------------------------------------------- *)

(* A controllable clock standing in for the simulation engine. *)
let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun dt -> t := !t +. dt)

let test_span_nesting () =
  let now, advance = fake_clock () in
  let tracer = Span.create () in
  let outer = Span.enter tracer ~at:(now ()) "outer" in
  advance 1.0;
  let inner = Span.enter tracer ~at:(now ()) "inner" in
  advance 2.0;
  Span.exit tracer inner ~at:(now ());
  advance 1.0;
  Span.exit tracer outer ~at:(now ());
  Alcotest.(check int) "all closed" 0 (Span.depth tracer);
  Alcotest.(check (option int)) "inner parent" (Some outer.Span.id) inner.Span.parent;
  Alcotest.(check (option (float 1e-9))) "inner duration" (Some 2.0) (Span.duration inner);
  Alcotest.(check (option (float 1e-9))) "outer duration" (Some 4.0) (Span.duration outer);
  Alcotest.(check int) "one root" 1 (List.length (Span.roots tracer));
  Alcotest.(check int) "outer has one child" 1 (List.length (Span.children tracer outer))

let test_span_detached () =
  let now, advance = fake_clock () in
  let tracer = Span.create () in
  let req = Span.start tracer ~at:(now ()) "request" in
  advance 0.5;
  (* An async continuation re-establishes the detached span as scope. *)
  let child =
    Span.in_scope tracer req (fun () ->
        let c = Span.enter tracer ~at:(now ()) "work" in
        Span.exit tracer c ~at:(now ());
        c)
  in
  Alcotest.(check (option int)) "continuation nests under request" (Some req.Span.id)
    child.Span.parent;
  advance 0.5;
  Span.finish req ~at:(now ());
  Alcotest.(check (option (float 1e-9))) "request spans the round trip" (Some 1.0)
    (Span.duration req)

let test_span_summarize () =
  let now, advance = fake_clock () in
  let tracer = Span.create () in
  List.iter
    (fun d ->
      let s = Span.enter tracer ~at:(now ()) "stage" in
      advance d;
      Span.exit tracer s ~at:(now ()))
    [ 1.0; 3.0 ];
  match Span.summarize tracer with
  | [ ("stage", st) ] ->
    Alcotest.(check int) "count" 2 st.Span.stage_count;
    Alcotest.(check (float 1e-9)) "total" 4.0 st.Span.stage_total;
    Alcotest.(check (float 1e-9)) "max" 3.0 st.Span.stage_max
  | _ -> Alcotest.fail "expected one summarized stage"

let test_span_retention_cap () =
  let tracer = Span.create ~max_spans:3 () in
  for _ = 1 to 5 do
    let s = Span.enter tracer ~at:0.0 "s" in
    Span.exit tracer s ~at:0.0
  done;
  Alcotest.(check int) "stored capped" 3 (List.length (Span.spans tracer));
  Alcotest.(check int) "overflow counted" 2 (Span.dropped tracer)

let test_obs_with_span_feeds_stage_metric () =
  let now, advance = fake_clock () in
  let obs = Obs.create ~clock:now () in
  Obs.with_span obs "gatekeeper.submit" (fun _ -> advance 0.25);
  (match
     Metrics.histogram_summary (Obs.metrics obs)
       ~labels:[ ("stage", "gatekeeper.submit") ]
       Obs.stage_metric
   with
  | None -> Alcotest.fail "stage histogram expected"
  | Some s ->
    Alcotest.(check int) "one observation" 1 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "duration recorded" 0.25 s.Metrics.sum);
  (* The disabled handle records nothing and hands out the null span. *)
  Obs.with_span Obs.noop "x" (fun span ->
      Alcotest.(check bool) "null span" true (span == Span.null));
  Alcotest.(check int) "noop tracer empty" 0 (List.length (Span.spans (Obs.tracer Obs.noop)))

(* --- End-to-end: the instrumented request path -------------------------- *)

let counter w ~labels name =
  Metrics.counter_value
    (Obs.metrics (Core.Gram.Resource.obs w.Core.Fusion.resource))
    ~labels name

let test_end_to_end_metrics () =
  let w = Core.Fusion.build () in
  let obs = Core.Gram.Resource.obs w.Core.Fusion.resource in
  (* Permitted submission (Bo, inside the developers envelope)... *)
  let reply =
    Core.Gram.Client.submit_sync w.Core.Fusion.bo
      ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=10)"
  in
  let contact =
    match reply with
    | Ok r -> r.Core.Gram.Protocol.job_contact
    | Error e -> Alcotest.fail (Core.Gram.Protocol.submit_error_to_string e)
  in
  (* ...a denied one (count over the profile limit)... *)
  (match
     Core.Gram.Client.submit_sync w.Core.Fusion.bo
       ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=6)"
   with
  | Ok _ -> Alcotest.fail "expected denial"
  | Error _ -> ());
  (* ...and a permitted third-party cancel (admin over the ADS tag). *)
  (match
     Core.Gram.Client.manage_sync w.Core.Fusion.vo_admin ~contact Core.Gram.Protocol.Cancel
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Core.Gram.Protocol.management_error_to_string e));
  Core.Testbed.run w.Core.Fusion.testbed;
  let check name expected labels =
    Alcotest.(check (float 1e-9)) name expected (counter w ~labels name)
  in
  check "authz_decisions_total" 1.0
    [ ("backend", "flat_file"); ("action", "start"); ("outcome", "permitted") ];
  check "authz_decisions_total" 1.0
    [ ("backend", "flat_file"); ("action", "start"); ("outcome", "denied") ];
  check "authz_decisions_total" 1.0
    [ ("backend", "flat_file"); ("action", "cancel"); ("outcome", "permitted") ];
  check "jobs_submitted_total" 1.0 [ ("outcome", "accepted") ];
  check "jobs_submitted_total" 1.0 [ ("outcome", "refused") ];
  check "management_requests_total" 1.0 [ ("action", "cancel"); ("outcome", "ok") ];
  check "lrm_submissions_total" 1.0 [ ("outcome", "accepted") ];
  check "lrm_jobs_total" 1.0 [ ("state", "cancelled") ];
  check "authn_total" 3.0 [ ("outcome", "ok") ];
  (* Per-source policy evaluation: both sources ran on each of the three
     decisions (conjunctive combination, resource-owner permits all). *)
  Alcotest.(check bool) "policy evals recorded" true
    (Metrics.counter_total (Obs.metrics obs) "policy_eval_total" >= 6.0);
  (* Stage histograms exist for the whole span vocabulary of this path. *)
  List.iter
    (fun stage ->
      match
        Metrics.histogram_summary (Obs.metrics obs) ~labels:[ ("stage", stage) ]
          Obs.stage_metric
      with
      | Some s -> Alcotest.(check bool) (stage ^ " observed") true (s.Metrics.count > 0)
      | None -> Alcotest.fail ("missing stage histogram: " ^ stage))
    [ "gram.request"; "gatekeeper.submit"; "gsi.authenticate"; "account.map";
      "jmi.start"; "authz.callout"; "policy.eval"; "sandbox.check"; "lrm.submit";
      "jmi.manage"; "lrm.cancel"; "job.run" ]

let test_end_to_end_spans () =
  let w = Core.Fusion.build () in
  let obs = Core.Gram.Resource.obs w.Core.Fusion.resource in
  (match
     Core.Gram.Client.submit_sync w.Core.Fusion.kate
       ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=30)"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Core.Gram.Protocol.submit_error_to_string e));
  Core.Testbed.run w.Core.Fusion.testbed;
  let tracer = Obs.tracer obs in
  (* The network round trip is the only stage with nonzero duration; the
     in-resource stages all happen within one simulation event. *)
  (match Span.find tracer ~name:"gram.request" with
  | [ req ] -> begin
    Alcotest.(check bool) "request took simulated time" true
      (match Span.duration req with Some d -> d > 0.0 | None -> false);
    (* gatekeeper.submit nests under the request via in_scope. *)
    match Span.find tracer ~name:"gatekeeper.submit" with
    | [ gk ] -> Alcotest.(check (option int)) "nested" (Some req.Span.id) gk.Span.parent
    | _ -> Alcotest.fail "expected one gatekeeper.submit span"
  end
  | _ -> Alcotest.fail "expected one gram.request span");
  (* job.run is detached: it outlives jmi.start and records the job's
     simulated lifetime. *)
  (match Span.find tracer ~name:"job.run" with
  | [ run ] ->
    Alcotest.(check bool) "job lifetime recorded" true
      (match Span.duration run with Some d -> d >= 30.0 | None -> false)
  | _ -> Alcotest.fail "expected one job.run span");
  (* Rendering never raises and mentions the span names. *)
  let rendered = Fmt.str "%a" Span.pp tracer in
  Alcotest.(check bool) "forest renders" true
    (Grid_util.Str_search.contains rendered "gram.request")

(* --- One authorization lane: a single request is a batch of one ------- *)

let submit_ok client rsl =
  match Core.Gram.Client.submit_sync client ~rsl with
  | Ok reply -> reply.Core.Gram.Protocol.job_contact
  | Error e -> Alcotest.fail (Core.Gram.Protocol.submit_error_to_string e)

(* Every ["authz.decision"] event from here on, in emission order. *)
let record_decisions obs =
  let seen = ref [] in
  Grid_obs.Event.subscribe (Obs.events obs) (fun e ->
      if String.equal e.Grid_obs.Event.kind "authz.decision" then seen := e :: !seen);
  fun () -> List.rev !seen

let sorted_attrs (s : Span.span) = List.sort compare s.Span.attrs

let test_single_manage_is_batch_of_one () =
  let w = Core.Fusion.build () in
  let obs = Core.Gram.Resource.obs w.Core.Fusion.resource in
  let bo = Core.Fusion.bo_liu in
  let decisions = record_decisions obs in
  let contact =
    submit_ok w.Core.Fusion.bo
      "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=600)"
  in
  (* The epoch the start decision on the same PEP carried; compiling
     draws it from a process-wide counter, so it is not pinned. *)
  let epoch =
    match decisions () with
    | [ start ] -> Option.value ~default:"?" (Grid_obs.Event.attr start "epoch")
    | es -> Alcotest.failf "expected one start decision, got %d" (List.length es)
  in
  (match Core.Gram.Client.manage_sync w.Core.Fusion.bo ~contact Core.Gram.Protocol.Status with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Core.Gram.Protocol.management_error_to_string e));
  let tracer = Obs.tracer obs in
  let manage_request =
    List.filter
      (fun s -> List.assoc_opt "kind" s.Span.attrs = Some "manage")
      (Span.find tracer ~name:"gram.request")
  in
  (match manage_request with
  | [ req ] ->
    let children = Span.children tracer req in
    Alcotest.(check (list string)) "stages under gram.request"
      [ "gsi.authenticate"; "authz.callout"; "jmi.manage" ]
      (List.map (fun s -> s.Span.name) children);
    let callout = List.find (fun s -> s.Span.name = "authz.callout") children in
    Alcotest.(check (list (pair string string))) "authz.callout attributes"
      [ ("backend", "flat_file"); ("size", "1") ]
      (sorted_attrs callout)
  | _ -> Alcotest.fail "expected one manage gram.request span");
  match List.tl (decisions ()) with
  | [ e ] ->
    Alcotest.(check (list (pair string string))) "authz.decision attributes"
      [ ("backend", "flat_file"); ("action", "information"); ("outcome", "permitted");
        ("subject", bo); ("epoch", epoch); ("job_id", contact); ("jobtag", "ADS");
        ("jobowner", bo); ("cred_expiry", "43200.000") ]
      e.Grid_obs.Event.attrs
  | es -> Alcotest.failf "expected one authz.decision event, got %d" (List.length es)

let test_management_batch_is_one_callout () =
  let w = Core.Fusion.build () in
  let resource = w.Core.Fusion.resource in
  let obs = Core.Gram.Resource.obs resource in
  let bo_job =
    submit_ok w.Core.Fusion.bo
      "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=600)"
  in
  let kate_job =
    submit_ok w.Core.Fusion.kate
      "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=600)"
  in
  let dn = Core.Gsi.Dn.parse in
  let requests =
    Array.map
      (fun (requester, contact, action) ->
        { Core.Gram.Resource.requester = dn requester; credential = None; contact; action })
      [| (Core.Fusion.bo_liu, bo_job, Core.Gram.Protocol.Status);
         (Core.Fusion.kate_keahey, kate_job, Core.Gram.Protocol.Status);
         (Core.Fusion.admin, bo_job, Core.Gram.Protocol.Status);
         (Core.Fusion.bo_liu, kate_job, Core.Gram.Protocol.Cancel);
         (Core.Fusion.admin, kate_job, Core.Gram.Protocol.Signal Core.Gram.Protocol.Suspend) |]
  in
  let metrics = Obs.metrics obs in
  let decided_before = Metrics.counter_total metrics "authz_decisions_total" in
  let callouts_before = List.length (Span.find (Obs.tracer obs) ~name:"authz.callout") in
  let decisions = record_decisions obs in
  ignore (Core.Gram.Resource.manage_many_direct resource requests);
  (match
     List.filteri
       (fun i _ -> i >= callouts_before)
       (Span.find (Obs.tracer obs) ~name:"authz.callout")
   with
  | [ span ] ->
    Alcotest.(check (list (pair string string))) "one pass for the batch"
      [ ("backend", "flat_file"); ("size", "5") ]
      (sorted_attrs span)
  | spans -> Alcotest.failf "expected one authz.callout span, got %d" (List.length spans));
  Alcotest.(check (list (pair string string))) "one decision event per request, in order"
    (Array.to_list
       (Array.map
          (fun (r : Core.Gram.Resource.manage_request) ->
            ( Core.Gsi.Dn.to_string r.requester,
              Core.Policy.Types.Action.to_string
                (Core.Gram.Protocol.to_policy_action r.action) ))
          requests))
    (List.map
       (fun e ->
         let attr k = Option.value ~default:"?" (Grid_obs.Event.attr e k) in
         (attr "subject", attr "action"))
       (decisions ()));
  Alcotest.(check (float 1e-9)) "authz_decisions_total cells sum to the batch" 5.0
    (Metrics.counter_total metrics "authz_decisions_total" -. decided_before)

let test_disabled_observer_changes_nothing () =
  let tb = Core.Testbed.create () in
  let user = Core.Testbed.add_user tb "/O=Grid/O=Demo/CN=Solo" in
  let policy = Core.Policy.Parse.parse "/O=Grid/O=Demo: &(action = start)" in
  let lrm = Core.Lrm.Lrm.create ~nodes:1 ~cpus_per_node:4 (Core.Testbed.engine tb) in
  let resource =
    Core.Gram.Resource.create ~obs:Obs.noop ~trust:(Core.Testbed.trust tb)
      ~mapper:
        (Core.Accounts.Mapper.create
           (Core.Gsi.Gridmap.parse "\"/O=Grid/O=Demo/CN=Solo\" solo\n"))
      ~mode:
        (Core.Gram.Mode.extended
           (Core.Callout.File_pep.of_policy ~name:"p" policy))
      ~lrm ~engine:(Core.Testbed.engine tb) ()
  in
  let client = Core.Testbed.client tb ~user ~resource in
  (match Core.Gram.Client.submit_sync client ~rsl:"&(executable=x)(simduration=0)" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Core.Gram.Protocol.submit_error_to_string e));
  Core.Testbed.run tb;
  let obs = Core.Gram.Resource.obs resource in
  Alcotest.(check bool) "disabled" false (Obs.enabled obs);
  Alcotest.(check int) "no spans recorded" 0 (List.length (Span.spans (Obs.tracer obs)))

let () =
  Alcotest.run "grid_obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "label identity" `Quick test_label_identity;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_bucket_boundaries;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "all-zero histogram" `Quick test_histogram_all_zero;
          Alcotest.test_case "exposition" `Quick test_exposition ] );
      ( "spans",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "detached + in_scope" `Quick test_span_detached;
          Alcotest.test_case "summarize" `Quick test_span_summarize;
          Alcotest.test_case "retention cap" `Quick test_span_retention_cap;
          Alcotest.test_case "with_span feeds stage metric" `Quick
            test_obs_with_span_feeds_stage_metric ] );
      ( "end-to-end",
        [ Alcotest.test_case "metric deltas" `Quick test_end_to_end_metrics;
          Alcotest.test_case "span structure" `Quick test_end_to_end_spans;
          Alcotest.test_case "disabled observer" `Quick
            test_disabled_observer_changes_nothing ] );
      ( "one-lane",
        [ Alcotest.test_case "single manage is a batch of one" `Quick
            test_single_manage_is_batch_of_one;
          Alcotest.test_case "management batch is one callout" `Quick
            test_management_batch_is_one_callout ] ) ]
