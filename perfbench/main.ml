(* The callout-path benchmark suite.

   Usage:
     main.exe suite [--seed N] [--seconds S] [--smoke] [--json PATH]
                    [--trace PATH] [--job-seconds X] [WORKLOAD...]
     main.exe help

   Workloads: submit, manage, batch, fleet (default: all four, in that
   order). Each runs rounds of fixed size until [--seconds] have passed
   (at least one round); every round builds its own world and replays
   the stream drawn from [--seed]. End-to-end metrics print as
   "workload.metric value unit" and always come from these untraced
   rounds. With [--trace PATH] each workload is then replayed once, layer
   by layer ([Replay]); the per-layer metrics print in the same form and
   every span goes to PATH as Chrome trace_event JSON. The suite exits 1
   after printing the first failed or wrong answer. *)

let usage =
  {|usage: main.exe suite [--seed N] [--seconds S] [--smoke] [--json PATH]
                     [--trace PATH] [--job-seconds X] [WORKLOAD...]
       main.exe help

commands:
  suite    run the benchmark workloads (submit, manage, batch, fleet;
           default all) and print "workload.metric value unit" lines
  help     this text

suite options:
  --seed N          input seed (default 1)
  --seconds S       keep starting rounds until S seconds have passed
                    (default 0: one round per workload)
  --smoke           divide every op count by 100, one round, all checks
  --json PATH       write every metric, with its unit, as JSON
  --trace PATH      replay each workload layer by layer, print the
                    per-layer metrics and write the spans to PATH as
                    Chrome trace_event JSON
  --job-seconds X   simulated duration of submit-workload jobs (default 0)

Compare two sets of --json results with
  python3 perfbench/compare.py --base A.json... --new B.json...
|}

type workload = {
  name : string;
  size : Workloads.size;
  round :
    check:Workloads.checker -> seed:int -> measure_live:bool -> Workloads.size -> Workloads.round;
  replay : check:Workloads.checker -> seed:int -> Workloads.size -> Replay.result;
}

let workloads ~job_seconds =
  [ { name = "submit";
      size = { Workloads.warmup = 800; timed = 8000 };
      round = Workloads.submit_round ~job_seconds;
      replay = Replay.replay_submit ~job_seconds };
    { name = "manage";
      size = { Workloads.warmup = 1000; timed = 10000 };
      round = Workloads.manage_round;
      replay = Replay.replay_manage };
    { name = "batch";
      size = { Workloads.warmup = 10; timed = 200 };
      round = Workloads.batch_round;
      replay = Replay.replay_batch };
    { name = "fleet";
      size = { Workloads.warmup = 0; timed = 1500 };
      round = Workloads.fleet_round;
      replay = Replay.replay_fleet } ]

let smoke_size (s : Workloads.size) =
  { Workloads.warmup = s.Workloads.warmup / 100; timed = max 2 (s.Workloads.timed / 100) }

type outcome = {
  workload : string;
  attempted : int;
  failed : int;
  first_failure : Oracle.failure option;
  rounds : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  spans : float array;  (** the replay's spans, when traced *)
}

(* Layers whose drift is reported: the one the submit history inflates
   and three that should stay flat. *)
let drift_layers = [ "gsi.authn"; "policy.decide"; "gram.jmi"; "sim.drain" ]

(* Per-layer metrics from the replay, its times scaled by [scale] to the
   reference host; [e2e_ns] and [e2e_words] are the untraced cost of one
   op. *)
let layer_metrics ~scale ~e2e_ns ~e2e_words ~calib_ns ~counts (replay : Replay.result) =
  let per_layer =
    List.concat_map
      (fun (c : Replay.layer_cost) ->
        [ (c.Replay.layer ^ ".ns_per_op", c.Replay.ns_per_op *. scale, "ns/op");
          (c.Replay.layer ^ ".words_per_op", c.Replay.words_per_op, "words/op") ]
        @ (if c.Replay.layer = "policy.decide" then
             [ ("policy.decide.calls_per_op", c.Replay.calls_per_op, "calls/op") ]
           else [])
        @
        if List.mem c.Replay.layer drift_layers then
          [ ( c.Replay.layer ^ ".drift",
              (if Float.is_nan c.Replay.drift then 0.0 else c.Replay.drift),
              "ratio" ) ]
        else [])
      replay.Replay.costs
  in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 replay.Replay.costs in
  let layers_ns = scale *. sum (fun c -> c.Replay.ns_per_op) in
  let layers_words = sum (fun c -> c.Replay.words_per_op) in
  per_layer @ counts
  @ [ ("unattributed.ns_per_op", e2e_ns -. layers_ns, "ns/op");
      ("unattributed.words_per_op", e2e_words -. layers_words, "words/op");
      ("unattributed.share", (e2e_ns -. layers_ns) /. e2e_ns, "ratio");
      ( "trace.overhead_share",
        ((replay.Replay.ns_per_op *. scale) -. e2e_ns) /. e2e_ns,
        "ratio" );
      ("host.calib.ns", calib_ns, "ns") ]

(* Every round replays the same seeded stream on a fresh world, so rounds
   differ only in how fast the host was meanwhile. Each round's times are
   scaled to the reference host by the calibration loop run just before
   and after it ([Measure.calibrated]); the timing metrics are then
   best-of-k, the 10th percentile over the run's rounds, which also
   drops rounds hit by bursts of neighbouring load. Set-up time is the
   median over rounds. *)
let run_workload ~seed ~seconds ~smoke ~trace w =
  let check = Workloads.checker w.name in
  let size = if smoke then smoke_size w.size else w.size in
  let started = Measure.now_ns () in
  let rounds = ref [] in
  while
    !rounds = [] || ((not smoke) && Measure.now_ns () -. started < seconds *. 1e9)
  do
    let measure_live = !rounds = [] in
    rounds := Measure.calibrated (fun () -> w.round ~check ~seed ~measure_live size) :: !rounds;
    Gc.compact ()
  done;
  let rounds = Array.of_list (List.rev !rounds) in
  let first = fst rounds.(0) in
  let ops = float_of_int first.Workloads.ops in
  let scaled f = Array.map (fun (r, scale) -> f r *. scale) rounds in
  let best_time values = Measure.quantile values 0.1 in
  let busy_ns = best_time (scaled (fun r -> Array.fold_left ( +. ) 0.0 r.Workloads.calls_ns)) in
  let call_us q = best_time (scaled (fun r -> Measure.quantile r.Workloads.calls_ns q)) /. 1e3 in
  let e2e =
    [ ("ops_per_s", ops /. (busy_ns /. 1e9), "ops/s");
      ("call_p50_us", call_us 0.5, "us");
      ("call_p95_us", call_us 0.95, "us");
      ("setup_s", Measure.median (scaled (fun r -> r.Workloads.setup_ns)) /. 1e9, "s");
      ("live_heap_mb", first.Workloads.live_mb, "MB") ]
  in
  let calib_ns =
    Measure.median
      (Array.map (fun (_, scale) -> Measure.reference_calibration_ns /. scale) rounds)
  in
  let layers, spans =
    match trace with
    | None -> ([ ("host.calib.ns", calib_ns, "ns") ], [||])
    | Some _ ->
      let replay, scale = Measure.calibrated (fun () -> w.replay ~check ~seed size) in
      let e2e_words =
        Measure.median (Array.map (fun (r, _) -> r.Workloads.words /. ops) rounds)
      in
      ( layer_metrics ~scale ~e2e_ns:(busy_ns /. ops) ~e2e_words ~calib_ns
          ~counts:first.Workloads.counts replay,
        replay.Replay.spans )
  in
  { workload = w.name;
    attempted = check.Workloads.attempted;
    failed = check.Workloads.failed;
    first_failure = check.Workloads.first;
    rounds = Array.length rounds;
    metrics = e2e @ layers;
    spans }

(* --- Output --------------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let results_json ~seed ~smoke outcomes =
  let workload o =
    Printf.sprintf
      "%s:{\"attempted\":%d,\"failed\":%d,\"first_failure\":%s,\"rounds\":%d,\"metrics\":{%s}}"
      (json_string o.workload) o.attempted o.failed
      (match o.first_failure with
      | None -> "null"
      | Some f -> json_string (Fmt.str "%a" Oracle.pp_failure f))
      o.rounds
      (String.concat ","
         (List.map
            (fun (name, value, unit) ->
              Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name)
                (json_number value) (json_string unit))
            o.metrics))
  in
  Printf.sprintf "{\"seed\":%d,\"smoke\":%b,\"workloads\":{%s}}\n" seed smoke
    (String.concat "," (List.map workload outcomes))

(* Chrome trace_event JSON, the format [gridctl trace export] writes:
   one complete ("X") event per span, host time in microseconds from the
   first span, one process per workload. *)
let trace_json outcomes =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun pid o ->
      let s = o.spans in
      let n = Array.length s / 6 in
      let origin = ref infinity in
      for i = 0 to n - 1 do
        origin := Float.min !origin s.((6 * i) + 2)
      done;
      for i = 0 to n - 1 do
        let f k = s.((6 * i) + k) in
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,\"args\":{\"span_id\":\"%d\"%s,\"op\":\"%d\"}}"
             Replay.layer_names.(int_of_float (f 1))
             o.workload
             ((f 2 -. !origin) /. 1e3)
             ((f 3 -. f 2) /. 1e3)
             (pid + 1)
             (int_of_float (f 0))
             (if f 4 < 0.0 then ""
              else Printf.sprintf ",\"parent_id\":\"%d\"" (int_of_float (f 4)))
             (int_of_float (f 5)))
      done)
    outcomes;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* --- Command line ------------------------------------------------------------------ *)

let fail_usage message =
  prerr_endline ("main.exe: " ^ message);
  prerr_string usage;
  exit 2

let suite args =
  let seed = ref 1 and seconds = ref 0.0 and smoke = ref false in
  let json = ref None and trace = ref None and job_seconds = ref 0.0 in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some n -> n | None -> fail_usage "bad --seed");
      parse rest
    | "--seconds" :: v :: rest ->
      seconds :=
        (match float_of_string_opt v with Some s -> s | None -> fail_usage "bad --seconds");
      parse rest
    | "--job-seconds" :: v :: rest ->
      job_seconds :=
        (match float_of_string_opt v with
        | Some s -> s
        | None -> fail_usage "bad --job-seconds");
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--trace" :: path :: rest ->
      trace := Some path;
      parse rest
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
      fail_usage ("unknown or incomplete option " ^ flag)
    | name :: rest ->
      names := name :: !names;
      parse rest
  in
  parse args;
  let all = workloads ~job_seconds:!job_seconds in
  let selected =
    match List.rev !names with
    | [] -> all
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun w -> w.name = n) all with
          | Some w -> w
          | None ->
            fail_usage
              (Printf.sprintf "unknown workload %s (known: %s)" n
                 (String.concat ", " (List.map (fun w -> w.name) all))))
        names
  in
  let outcomes =
    List.map
      (fun w ->
        let o = run_workload ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~trace:!trace w in
        Printf.printf "%s.rounds %d\n%s.failed_share %.6g ratio\n" o.workload o.rounds
          o.workload
          (float_of_int o.failed /. float_of_int (max 1 o.attempted));
        List.iter
          (fun (name, value, unit) ->
            Printf.printf "%s.%s %.6g %s\n" o.workload name value unit)
          o.metrics;
        flush stdout;
        o)
      selected
  in
  Option.iter (fun path -> write_file path (results_json ~seed:!seed ~smoke:!smoke outcomes)) !json;
  Option.iter (fun path -> write_file path (trace_json outcomes)) !trace;
  match List.find_map (fun o -> o.first_failure) outcomes with
  | None -> ()
  | Some f ->
    Format.printf "FAIL %a@." Oracle.pp_failure f;
    exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "suite" :: args -> suite args
  | ("help" | "--help" | "-h") :: _ -> print_string usage
  | [] -> fail_usage "missing command"
  | cmd :: _ -> fail_usage ("unknown command " ^ cmd)
