(* The four workloads, untraced. Each round builds its own world (timed
   as set-up, together with standing jobs and the warm-up), then times a
   fixed-size phase call by call through public [Core] entry points.
   Every answer is checked against the oracle after the timed phase, so
   checking never counts as measured work. *)

open Core

type size = { warmup : int; timed : int }
(* in calls; a [batch] call carries [batch_width] ops *)

let batch_width = 256
let manage_jobs = 64
(* 512 jobs x 7 requesters x 3 actions is about 2.6 times the 4096-entry
   decision cache, so the batch lane's miss path does real work; 512
   one-cpu jobs exactly fill the 64-node cluster. *)
let batch_jobs = 512

let fleet_arrival_rate = 5.0

type round = {
  setup_ns : float;
  ops : int;  (** ops in the timed phase *)
  calls_ns : float array;  (** host time of every timed call *)
  words : float;  (** minor words allocated by the timed phase *)
  live_mb : float;
      (** live heap right after the timed phase, world still reachable;
          [nan] unless asked for *)
  counts : (string * float * string) list;
      (** per-layer counts over the timed phase (name, value, unit), read
          through public accessors *)
}

(* Tallies every checked answer; keeps the first failure. *)
type checker = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  mutable first : Oracle.failure option;
}

let checker workload = { workload; attempted = 0; failed = 0; first = None }

let record c ~phase ~op verdict =
  c.attempted <- c.attempted + 1;
  match verdict with
  | None -> ()
  | Some reason ->
    c.failed <- c.failed + 1;
    if c.first = None then c.first <- Some { Oracle.workload = c.workload; phase; op; reason }

let policy_sources () = Fusion.policy_sources (Fusion.build_vo ())

let cast_world () = Fusion.build ~nodes:64 ~authz_cache:4096 ~store:true ()

let outsider_client (w : Fusion.world) =
  Testbed.client w.Fusion.testbed
    ~user:(Testbed.add_user w.Fusion.testbed Fusion.outsider)
    ~resource:w.Fusion.resource

let client_of (w : Fusion.world) outsider = function
  | Inputs.Bo -> w.Fusion.bo
  | Inputs.Kate -> w.Fusion.kate
  | Inputs.Admin -> w.Fusion.vo_admin
  | Inputs.Outsider -> outsider

(* Counters a single resource exposes, sampled before and after the
   timed phase. *)
type snapshot = {
  hits : int;
  misses : int;
  bypasses : int;
  appends : int;
  bytes : int;
  events : int;
  messages : int;
}

let snapshot ~engine ~caches ~stores ~networks =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  { hits = sum Callout.Cache.hits caches;
    misses = sum Callout.Cache.misses caches;
    bypasses = sum Callout.Cache.bypasses caches;
    appends = sum Store.Store.appends stores;
    bytes = sum Store.Store.journal_bytes stores;
    events = Sim.Engine.executed engine;
    messages = sum Sim.Network.messages_sent networks }

let resource_snapshot (w : Fusion.world) =
  let r = w.Fusion.resource in
  snapshot
    ~engine:(Testbed.engine w.Fusion.testbed)
    ~caches:(Option.to_list (Gram.Resource.authz_cache r))
    ~stores:(Option.to_list (Gram.Resource.store r))
    ~networks:[ Gram.Resource.network r ]

(* [reloads] and [placement_p99] are the fleet campaign's; other
   workloads have neither. *)
let counts ?(reloads = 0) ?(placement_p99 = 0.0) ~ops before after =
  let per_op d = float_of_int d /. float_of_int (max 1 ops) in
  let hits = after.hits - before.hits and misses = after.misses - before.misses in
  [ ( "callout.cache.hit_ratio",
      (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)),
      "ratio" );
    ("callout.cache.bypasses", float_of_int (after.bypasses - before.bypasses), "count");
    ("store.append.appends_per_op", per_op (after.appends - before.appends), "appends/op");
    ("store.append.bytes_per_op", per_op (after.bytes - before.bytes), "B/op");
    ("sim.drain.events_per_op", per_op (after.events - before.events), "events/op");
    ("sim.network.messages_per_op", per_op (after.messages - before.messages), "msgs/op");
    ("policy.reload.reloads", float_of_int reloads, "count");
    ("placement.p99_sim_s", placement_p99, "sim-s") ]

(* The live heap after a full major collection: what the round's world
   retains. Taken once per run, outside every timed section. *)
let live_mb ~measure =
  if not measure then nan
  else begin
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)
  end

(* Time [n] calls of [call i] (the i-th timed call), collecting results
   for checking afterwards. *)
let timed_phase n call =
  let calls = Array.make n 0.0 in
  let results = Array.make n None in
  let words0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    let t0 = Measure.now_ns () in
    let r = call i in
    calls.(i) <- Measure.now_ns () -. t0;
    results.(i) <- Some r
  done;
  let words = Gc.minor_words () -. words0 in
  (calls, Array.map Option.get results, words)

(* --- submit --------------------------------------------------------------- *)

let submit_round ~check ~seed ~measure_live ~job_seconds size =
  let t0 = Measure.now_ns () in
  let w = cast_world () in
  let outsider = outsider_client w in
  let oracle = Oracle.create (policy_sources ()) in
  let stream = Inputs.submit_stream ~seed ~job_seconds (size.warmup + size.timed) in
  let submit i =
    let who, tpl = stream.(i) in
    let result = Gram.Client.submit_sync (client_of w outsider who) ~rsl:tpl.Oracle.text in
    Testbed.run w.Fusion.testbed;
    result
  in
  let verify ~phase ~op i result =
    let who, tpl = stream.(i) in
    record check ~phase ~op
      (Oracle.check_submit oracle ~requester:(Gsi.Dn.parse (Inputs.dn_of who)) tpl result)
  in
  for i = 0 to size.warmup - 1 do
    verify ~phase:"warm-up" ~op:i i (submit i)
  done;
  let setup_ns = Measure.now_ns () -. t0 in
  let before = resource_snapshot w in
  let calls_ns, results, words = timed_phase size.timed (fun i -> submit (size.warmup + i)) in
  let live_mb = live_mb ~measure:measure_live in
  let after = resource_snapshot w in
  Array.iteri (fun i r -> verify ~phase:"timed" ~op:i (size.warmup + i) r) results;
  { setup_ns; ops = size.timed; calls_ns; words; live_mb; counts = counts ~ops:size.timed before after }

(* --- standing jobs for manage / batch --------------------------------------- *)

(* Submit [n] standing jobs; returns (contact, owner dn, jobtag) per job. *)
let standing_jobs ~check (w : Fusion.world) oracle n =
  Array.init n (fun j ->
      let who, tpl = Inputs.standing_template j in
      let owner = Gsi.Dn.parse (Inputs.dn_of who) in
      let owner_client = if who = Inputs.Bo then w.Fusion.bo else w.Fusion.kate in
      let result = Gram.Client.submit_sync owner_client ~rsl:tpl.Oracle.text in
      record check ~phase:"standing" ~op:j (Oracle.check_submit oracle ~requester:owner tpl result);
      let contact =
        match result with Ok r -> r.Gram.Protocol.job_contact | Error _ -> "unplaced"
      in
      (contact, owner, tpl.Oracle.jobtag))

let cancel_permitted oracle jobs requester_dn j =
  let _, owner, jobtag = jobs.(j) in
  Result.is_ok
    (Oracle.management_decision oracle ~requester:(Gsi.Dn.parse requester_dn) ~owner ~jobtag
       Gram.Protocol.Cancel)

(* --- manage ------------------------------------------------------------------ *)

let manage_round ~check ~seed ~measure_live size =
  let t0 = Measure.now_ns () in
  let w = cast_world () in
  let outsider = outsider_client w in
  let oracle = Oracle.create (policy_sources ()) in
  let jobs = standing_jobs ~check w oracle manage_jobs in
  let owner_of j = if j mod 2 = 0 then Inputs.Bo else Inputs.Kate in
  let stream =
    Inputs.manage_stream ~seed ~jobs:manage_jobs ~owner_of
      ~cancel_ok:(fun who j -> cancel_permitted oracle jobs (Inputs.dn_of who) j)
      (size.warmup + size.timed)
  in
  let manage i =
    let op = stream.(i) in
    let contact, _, _ = jobs.(op.Inputs.job) in
    Gram.Client.manage_sync (client_of w outsider op.Inputs.requester) ~contact op.Inputs.action
  in
  let verify ~phase ~op i result =
    let m = stream.(i) in
    let _, owner, jobtag = jobs.(m.Inputs.job) in
    record check ~phase ~op
      (Oracle.check_manage oracle ~requester:(Gsi.Dn.parse (Inputs.dn_of m.Inputs.requester))
         ~owner ~jobtag m.Inputs.action result)
  in
  for i = 0 to size.warmup - 1 do
    verify ~phase:"warm-up" ~op:i i (manage i)
  done;
  let setup_ns = Measure.now_ns () -. t0 in
  let before = resource_snapshot w in
  let calls_ns, results, words = timed_phase size.timed (fun i -> manage (size.warmup + i)) in
  let live_mb = live_mb ~measure:measure_live in
  let after = resource_snapshot w in
  Array.iteri (fun i r -> verify ~phase:"timed" ~op:i (size.warmup + i) r) results;
  { setup_ns; ops = size.timed; calls_ns; words; live_mb; counts = counts ~ops:size.timed before after }

(* --- batch ------------------------------------------------------------------- *)

let batch_round ~check ~seed ~measure_live size =
  let t0 = Measure.now_ns () in
  let w = cast_world () in
  let oracle = Oracle.create (policy_sources ()) in
  let jobs = standing_jobs ~check w oracle batch_jobs in
  let n = (size.warmup + size.timed) * batch_width in
  let stream =
    Inputs.batch_stream ~seed ~jobs:batch_jobs ~cancel_ok:(cancel_permitted oracle jobs) n
  in
  let requests =
    Array.map
      (fun (b : Inputs.batch_op) ->
        let contact, _, _ = jobs.(b.Inputs.target) in
        { Gram.Resource.requester = Gsi.Dn.parse b.Inputs.requester_dn;
          credential = None;
          contact;
          action = b.Inputs.op })
      stream
  in
  let call c =
    Gram.Resource.manage_many_direct w.Fusion.resource
      (Array.sub requests (c * batch_width) batch_width)
  in
  let verify ~phase c answers =
    Array.iteri
      (fun k result ->
        let i = (c * batch_width) + k in
        let b = stream.(i) in
        let _, owner, jobtag = jobs.(b.Inputs.target) in
        record check ~phase ~op:i
          (Oracle.check_manage oracle ~requester:requests.(i).Gram.Resource.requester ~owner
             ~jobtag b.Inputs.op result))
      answers
  in
  for c = 0 to size.warmup - 1 do
    verify ~phase:"warm-up" c (call c)
  done;
  let setup_ns = Measure.now_ns () -. t0 in
  let before = resource_snapshot w in
  let calls_ns, results, words = timed_phase size.timed (fun c -> call (size.warmup + c)) in
  let live_mb = live_mb ~measure:measure_live in
  let after = resource_snapshot w in
  Array.iteri (fun c answers -> verify ~phase:"timed" (size.warmup + c) answers) results;
  let ops = size.timed * batch_width in
  { setup_ns; ops; calls_ns; words; live_mb; counts = counts ~ops before after }

(* --- fleet ------------------------------------------------------------------- *)

let fleet_members = 4

(* The DN universe is part of the world, fixed across seeds; the seed
   drives the campaign drawn from it. *)
let fleet_population () = Population.create ~seed:49 ~size:100_000

let fleet_world () =
  let population = fleet_population () in
  let w =
    Fusion.build ~fleet:fleet_members ~population ~authz_cache:1024 ~nodes:64
      ~sts:Sts.Validator.Short_ttl ~faults:Sim.Network.Faults.none ()
  in
  (w, population, Option.get w.Fusion.fleet)

let fleet_config ~seed arrivals =
  { Workload.default_population_config with
    Workload.pop_arrival_rate = fleet_arrival_rate;
    pop_job_count = arrivals;
    pop_seed = seed }

let fleet_snapshot fleet =
  let members = Fleet.members fleet in
  snapshot ~engine:(Fleet.engine fleet)
    ~caches:(List.filter_map Fleet.member_cache members)
    ~stores:(List.filter_map Fleet.member_store members)
    ~networks:(List.map (fun m -> Gram.Resource.network (Fleet.member_resource m)) members)

(* One open-loop campaign in simulated time; there is no warm-up, as
   the campaign cannot be resumed once it has drained. A call is the
   host time between consecutive arrivals reaching a member (the
   wide-event bus marks each submission request), so the calls partition
   the campaign; the last one includes the final drain. *)
let fleet_round ~check ~seed ~measure_live size =
  let t0 = Measure.now_ns () in
  let w, population, fleet = fleet_world () in
  let setup_ns = Measure.now_ns () -. t0 in
  let marks = Measure.Samples.create () in
  Obs.Event.subscribe
    (Obs.Obs.events (Testbed.obs w.Fusion.testbed))
    (fun e ->
      if String.equal e.Obs.Event.kind "gram.request"
         && Obs.Event.attr e "kind" = Some "submit"
      then Measure.Samples.add marks (Measure.now_ns ()));
  let before = fleet_snapshot fleet in
  let words0 = Gc.minor_words () in
  let start = Measure.now_ns () in
  let stats =
    Workload.run_population ?sts:w.Fusion.sts ~fleet ~population
      ~ca:(Testbed.ca w.Fusion.testbed)
      (fleet_config ~seed size.timed)
  in
  let stop = Measure.now_ns () in
  let words = Gc.minor_words () -. words0 in
  let live_mb = live_mb ~measure:measure_live in
  let after = fleet_snapshot fleet in
  let bounds = Array.concat [ [| start |]; Measure.Samples.to_array marks; [| stop |] ] in
  let calls_ns = Array.init (Array.length bounds - 1) (fun i -> bounds.(i + 1) -. bounds.(i)) in
  (* The campaign runs inside the library, so arrivals are checked by
     tally: every one submitted, and each accepted or denied by policy. *)
  let tally = stats.Workload.tally in
  List.iter
    (fun (what, n) ->
      for _ = 1 to n do
        record check ~phase:"campaign" ~op:tally.Workload.submitted
          (Some (Fmt.str "arrival %s (%a)" what Workload.pp_population_stats stats))
      done)
    [ ("unplaceable", stats.Workload.unplaceable);
      ("timed out", tally.Workload.timed_out);
      ("refused for a reason other than policy", tally.Workload.denied_other);
      ("never submitted", size.timed - tally.Workload.submitted) ];
  for i = 1 to tally.Workload.accepted + tally.Workload.denied_authorization do
    record check ~phase:"campaign" ~op:i None
  done;
  { setup_ns;
    ops = size.timed;
    calls_ns;
    words;
    live_mb;
    counts =
      counts ~reloads:stats.Workload.reloads
        ?placement_p99:(Workload.latency_percentile stats 0.99)
        ~ops:size.timed before after }
