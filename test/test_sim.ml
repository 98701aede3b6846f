(* Tests for grid_sim: event ordering, clock semantics, network model,
   traces. *)

open Grid_sim

let test_engine_orders_by_time () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.schedule_at e 3.0 (fun () -> order := 3 :: !order);
  Engine.schedule_at e 1.0 (fun () -> order := 1 :: !order);
  Engine.schedule_at e 2.0 (fun () -> order := 2 :: !order);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order)

let test_engine_fifo_at_same_time () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 10 do
    Engine.schedule_at e 5.0 (fun () -> order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !order)

let test_engine_now_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule_at e 1.5 (fun () -> seen := Engine.now e :: !seen);
  Engine.schedule_at e 4.0 (fun () -> seen := Engine.now e :: !seen);
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "clock tracks events" [ 1.5; 4.0 ] (List.rev !seen)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule_at e 2.0 (fun () ->
      Alcotest.(check bool) "scheduling in the past raises" true
        (try
           Engine.schedule_at e 1.0 ignore;
           false
         with Invalid_argument _ -> true));
  Engine.run e

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule_at e 1.0 (fun () ->
      Engine.schedule_after e 1.0 (fun () ->
          incr hits;
          Alcotest.(check (float 1e-9)) "nested time" 2.0 (Engine.now e)));
  Engine.run e;
  Alcotest.(check int) "nested ran" 1 !hits

let test_engine_run_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule_at e 1.0 (fun () -> incr hits);
  Engine.schedule_at e 10.0 (fun () -> incr hits);
  Engine.run_until e 5.0;
  Alcotest.(check int) "only events before deadline" 1 !hits;
  Alcotest.(check (float 1e-9)) "clock at deadline" 5.0 (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "remaining fired" 2 !hits

let test_engine_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e);
  Engine.schedule_at e 0.0 ignore;
  Alcotest.(check bool) "step executes" true (Engine.step e);
  Alcotest.(check int) "executed counter" 1 (Engine.executed e)

let test_engine_many_events () =
  (* Exercises heap growth beyond the initial 64-slot array. *)
  let e = Engine.create () in
  let r = Grid_util.Rng.create ~seed:5 in
  let fired = ref 0 in
  let last = ref (-1.0) in
  for _ = 1 to 5000 do
    let at = Grid_util.Rng.float r 1000.0 in
    Engine.schedule_at e at (fun () ->
        incr fired;
        Alcotest.(check bool) "monotone" true (Engine.now e >= !last);
        last := Engine.now e)
  done;
  Engine.run e;
  Alcotest.(check int) "all fired" 5000 !fired

let test_clock_helpers () =
  Alcotest.(check (float 1e-9)) "minutes" 90.0 (Clock.minutes 1.5);
  Alcotest.(check (float 1e-9)) "hours" 7200.0 (Clock.hours 2.0);
  Alcotest.(check bool) "leq" true Clock.(1.0 <= 1.0)

let test_network_delivers_with_latency () =
  let e = Engine.create () in
  let net = Network.create ~base_latency:0.01 ~jitter:0.0 e in
  let delivered_at = ref nan in
  Network.send net (fun () -> delivered_at := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "base latency" 0.01 !delivered_at;
  Alcotest.(check int) "counted" 1 (Network.messages_sent net)

let test_network_jitter_bounded () =
  let e = Engine.create () in
  let net = Network.create ~base_latency:0.005 ~jitter:0.002 ~seed:9 e in
  let times = ref [] in
  for _ = 1 to 100 do
    Network.send net (fun () -> times := Engine.now e :: !times)
  done;
  Engine.run e;
  List.iter
    (fun t -> Alcotest.(check bool) "within [base, base+jitter)" true (t >= 0.005 && t < 0.007))
    !times

let test_network_zero_latency () =
  let e = Engine.create () in
  let net = Network.create ~base_latency:0.0 ~jitter:0.0 e in
  let at = ref nan in
  Network.send net (fun () -> at := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "instant" 0.0 !at

(* --- Fault injection --------------------------------------------------- *)

let test_network_drop_all () =
  let e = Engine.create () in
  let net =
    Network.create ~base_latency:0.01 ~jitter:0.0
      ~faults:(Network.Faults.profile ~drop:1.0 ()) e
  in
  let delivered = ref 0 in
  for _ = 1 to 20 do
    Network.send net (fun () -> incr delivered)
  done;
  Engine.run e;
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  Alcotest.(check int) "all counted dropped" 20 (Network.messages_dropped net);
  Alcotest.(check int) "sends still counted" 20 (Network.messages_sent net)

let test_network_duplicate_all () =
  let e = Engine.create () in
  let net =
    Network.create ~base_latency:0.01 ~jitter:0.0
      ~faults:(Network.Faults.profile ~duplicate:1.0 ()) e
  in
  let delivered = ref 0 in
  for _ = 1 to 10 do
    Network.send net (fun () -> incr delivered)
  done;
  Engine.run e;
  Alcotest.(check int) "every message delivered twice" 20 !delivered;
  Alcotest.(check int) "duplicates counted" 10 (Network.messages_duplicated net)

let test_network_partition_per_link () =
  let e = Engine.create () in
  let net = Network.create ~base_latency:0.01 ~jitter:0.0 e in
  let a = ref 0 and b = ref 0 in
  Network.partition net ~link:"a";
  Alcotest.(check bool) "partitioned" true (Network.partitioned net ~link:"a");
  Network.send ~link:"a" net (fun () -> incr a);
  Network.send ~link:"b" net (fun () -> incr b);
  Engine.run e;
  Alcotest.(check int) "partitioned link drops" 0 !a;
  Alcotest.(check int) "other link unaffected" 1 !b;
  Network.heal net ~link:"a";
  Network.send ~link:"a" net (fun () -> incr a);
  Engine.run e;
  Alcotest.(check int) "healed link delivers" 1 !a

let test_network_fault_schedule () =
  let e = Engine.create () in
  let net = Network.create ~base_latency:0.001 ~jitter:0.0 e in
  (* Outage window [1, 2): everything dropped; before and after, clean. *)
  Network.apply_schedule net
    [ (1.0, Network.Faults.profile ~drop:1.0 ()); (2.0, Network.Faults.none) ];
  let delivered = ref 0 in
  let send_at t = Engine.schedule_at e t (fun () -> Network.send net (fun () -> incr delivered)) in
  send_at 0.5;
  send_at 1.5;
  send_at 2.5;
  Engine.run e;
  Alcotest.(check int) "only the in-window send dropped" 2 !delivered;
  Alcotest.(check int) "one drop" 1 (Network.messages_dropped net)

let test_network_fault_listener () =
  let e = Engine.create () in
  let net =
    Network.create ~faults:(Network.Faults.profile ~drop:1.0 ()) e
  in
  let events = ref [] in
  Network.on_fault net (fun ev -> events := ev :: !events);
  Network.send ~link:"gk" net ignore;
  Network.partition net ~link:"jm";
  Network.send ~link:"jm" net ignore;
  Engine.run e;
  let labels =
    List.rev_map
      (function
        | Network.Dropped l -> "dropped:" ^ l
        | Network.Duplicated l -> "duplicated:" ^ l
        | Network.Delayed (l, _) -> "delayed:" ^ l
        | Network.Partitioned l -> "partitioned:" ^ l)
      !events
  in
  Alcotest.(check (list string)) "events in order" [ "dropped:gk"; "partitioned:jm" ] labels

(* Regression (PR-2 satellite): fault sampling must not perturb the latency
   stream. A message that IS delivered gets exactly the latency it would
   have had with faults disabled — so span/trace timing expectations from
   PR 1 remain stable when chaos is switched on. *)
let test_network_fault_stream_independent_of_latency_stream () =
  let deliveries faults =
    let e = Engine.create () in
    let net = Network.create ~base_latency:0.005 ~jitter:0.002 ~seed:21 ?faults e in
    let times = Array.make 200 nan in
    for i = 0 to 199 do
      (* Record only the first arrival: a duplicate delivers later. *)
      Network.send net (fun () ->
          if Float.is_nan times.(i) then times.(i) <- Engine.now e)
    done;
    Engine.run e;
    times
  in
  let clean = deliveries None in
  let faulty =
    deliveries (Some (Network.Faults.profile ~drop:0.3 ~duplicate:0.1 ()))
  in
  let dropped = ref 0 in
  Array.iteri
    (fun i t ->
      if Float.is_nan t then incr dropped
      else
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "message %d latency unchanged by fault sampling" i)
          clean.(i) t)
    faulty;
  Alcotest.(check bool) "some messages were dropped" true (!dropped > 0)

let test_trace_roundtrip () =
  let tr = Trace.create () in
  Trace.record tr ~at:1.0 ~source:"client" ~target:"gatekeeper" "submit";
  Trace.record tr ~at:2.0 ~source:"gatekeeper" ~target:"jmi" "spawn";
  Trace.record tr ~at:3.0 ~source:"client" ~target:"gatekeeper" "submit";
  Alcotest.(check int) "entries" 3 (List.length (Trace.entries tr));
  Alcotest.(check int) "find submit" 2 (Trace.count tr ~label:"submit");
  Alcotest.(check int) "find spawn" 1 (Trace.count tr ~label:"spawn");
  let first = List.hd (Trace.entries tr) in
  Alcotest.(check string) "order preserved" "client" first.Trace.source

let qcheck_engine_executes_all =
  QCheck.Test.make ~name:"engine executes every scheduled event" ~count:100
    QCheck.(list (float_bound_exclusive 100.0))
    (fun times ->
      let e = Engine.create () in
      let n = ref 0 in
      List.iter (fun t -> Engine.schedule_at e t (fun () -> incr n)) times;
      Engine.run e;
      !n = List.length times)

let () =
  Alcotest.run "grid_sim"
    [ ( "engine",
        [ Alcotest.test_case "orders by time" `Quick test_engine_orders_by_time;
          Alcotest.test_case "fifo at same time" `Quick test_engine_fifo_at_same_time;
          Alcotest.test_case "clock advances" `Quick test_engine_now_advances;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "many events (heap growth)" `Quick test_engine_many_events;
          QCheck_alcotest.to_alcotest qcheck_engine_executes_all ] );
      ("clock", [ Alcotest.test_case "helpers" `Quick test_clock_helpers ]);
      ( "network",
        [ Alcotest.test_case "delivers with latency" `Quick test_network_delivers_with_latency;
          Alcotest.test_case "jitter bounded" `Quick test_network_jitter_bounded;
          Alcotest.test_case "zero latency" `Quick test_network_zero_latency ] );
      ( "faults",
        [ Alcotest.test_case "drop all" `Quick test_network_drop_all;
          Alcotest.test_case "duplicate all" `Quick test_network_duplicate_all;
          Alcotest.test_case "per-link partition + heal" `Quick
            test_network_partition_per_link;
          Alcotest.test_case "scripted fault schedule" `Quick test_network_fault_schedule;
          Alcotest.test_case "fault listener events" `Quick test_network_fault_listener;
          Alcotest.test_case "latency stream independent of faults (regression)" `Quick
            test_network_fault_stream_independent_of_latency_stream ] );
      ("trace", [ Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip ]) ]
