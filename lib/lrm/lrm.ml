(* The local resource manager: a PBS/LSF stand-in.

   The Job Manager Instance "interfaces with the resource's job control
   system (e.g. LSF, PBS) to initiate the user's job" — this is that job
   control system. A cluster of nodes with CPUs, named priority queues,
   and a scheduler; jobs run under local accounts, consume CPUs for a
   simulated duration, and support the management operations GRAM needs:
   cancel, suspend, resume, signal (priority change), query.

   Scheduling: whenever capacity or the pending set changes, the scheduler
   scans pending jobs in (queue priority, job priority, arrival) order and
   starts every job that fits — i.e. priority-ordered first-fit with
   skipping (small low-priority jobs may backfill around a large blocked
   one; adequate for a simulator substrate).

   Walltime accounting: a job's walltime budget is consumed only while
   running (it survives suspension); exceeding it kills the job, mirroring
   batch-system behaviour. Completion events are invalidated by a per-job
   generation counter so suspend/cancel races cannot double-fire. *)

type node = {
  cpus : int;
  mutable free : int;
}

type queue_config = {
  queue_name : string;
  priority : int;                  (* higher runs first *)
  max_walltime : float option;     (* seconds; queue-level cap *)
}

type state =
  | Pending
  | Running
  | Suspended
  | Completed
  | Cancelled
  | Killed of string               (* e.g. walltime exceeded *)

let state_to_string = function
  | Pending -> "pending"
  | Running -> "running"
  | Suspended -> "suspended"
  | Completed -> "completed"
  | Cancelled -> "cancelled"
  | Killed why -> "killed: " ^ why

type spec = {
  cpus : int;
  duration : float;                (* compute seconds needed *)
  walltime_limit : float option;   (* job-level cap, seconds *)
  queue : string option;           (* None: default queue *)
}

type job = {
  id : string;
  spec : spec;
  queue : queue_config;
  submitted_at : Grid_sim.Clock.time;
  mutable priority : int;          (* job-level, adjustable via signal *)
  mutable state : state;
  mutable remaining : float;       (* compute seconds still needed *)
  mutable walltime_used : float;
  mutable started_at : Grid_sim.Clock.time; (* of current run slice *)
  mutable allocation : (node * int) list;
  mutable generation : int;        (* invalidates stale completion events *)
  arrival : int;           (* FIFO tiebreak *)
}

type event =
  | State_changed of { job : job; from_state : state }

type t = {
  engine : Grid_sim.Engine.t;
  obs : Grid_obs.Obs.t;
  nodes : node list;
  queues : queue_config list;
  default_queue : queue_config;
  jobs : (string, job) Hashtbl.t;
  mutable pending : job list;      (* insertion order; sorted at pass time *)
  mutable arrivals : int;
  mutable listeners : (event -> unit) list;
  watchers : (string, (event -> unit) list) Hashtbl.t;  (* by job id *)
}

type error =
  | Unknown_queue of string
  | Too_many_cpus of { requested : int; capacity : int }
  | Unknown_job of string
  | Invalid_transition of { job : string; state : state; operation : string }

let error_to_string = function
  | Unknown_queue q -> "unknown queue: " ^ q
  | Too_many_cpus { requested; capacity } ->
    Printf.sprintf "requested %d cpus but the cluster has %d" requested capacity
  | Unknown_job id -> "unknown job: " ^ id
  | Invalid_transition { job; state; operation } ->
    Printf.sprintf "cannot %s job %s in state %s" operation job (state_to_string state)

let default_queues =
  [ { queue_name = "batch"; priority = 0; max_walltime = None };
    { queue_name = "priority"; priority = 10; max_walltime = Some 7200.0 } ]

let create ?(obs = Grid_obs.Obs.noop) ?(queues = default_queues) ~nodes ~cpus_per_node
    engine =
  if nodes <= 0 || cpus_per_node <= 0 then invalid_arg "Lrm.create: empty cluster";
  (match queues with [] -> invalid_arg "Lrm.create: no queues" | _ :: _ -> ());
  { engine;
    obs;
    nodes = List.init nodes (fun _ -> { cpus = cpus_per_node; free = cpus_per_node });
    queues;
    default_queue = List.hd queues;
    jobs = Hashtbl.create 64;
    pending = [];
    arrivals = 0;
    listeners = [];
    watchers = Hashtbl.create 64 }

let capacity t = List.fold_left (fun acc (n : node) -> acc + n.cpus) 0 t.nodes
let queue_names t = List.map (fun q -> q.queue_name) t.queues
let free_cpus t = List.fold_left (fun acc n -> acc + n.free) 0 t.nodes
let cpus_in_use t = capacity t - free_cpus t

let is_terminal = function
  | Completed | Cancelled | Killed _ -> true
  | Pending | Running | Suspended -> false

let on_event t f = t.listeners <- f :: t.listeners

(* A job's watchers live only as long as the job does: a watcher for a
   finished (or unknown) job could never fire, so it is not kept. *)
let watch t id f =
  match Hashtbl.find_opt t.jobs id with
  | Some job when not (is_terminal job.state) ->
    let fs = Option.value ~default:[] (Hashtbl.find_opt t.watchers id) in
    Hashtbl.replace t.watchers id (f :: fs)
  | Some _ | None -> ()

(* Over a snapshot taken before any callback runs: the job's watchers,
   then the global listeners, each newest first. A terminal transition
   drops the job's watchers. *)
let emit t (State_changed { job; _ } as ev) =
  let own =
    match Hashtbl.find_opt t.watchers job.id with
    | None -> []
    | Some fs ->
      if is_terminal job.state then Hashtbl.remove t.watchers job.id;
      fs
  in
  let listeners = t.listeners in
  List.iter (fun f -> f ev) own;
  List.iter (fun f -> f ev) listeners

(* Cluster occupancy gauges; refreshed on every allocation change. *)
let update_gauges t =
  if Grid_obs.Obs.enabled t.obs then begin
    Grid_obs.Obs.set_gauge t.obs "lrm_cpus_in_use" (float_of_int (cpus_in_use t));
    Grid_obs.Obs.set_gauge t.obs "lrm_cpus_free" (float_of_int (free_cpus t))
  end

(* Coarse label for terminal-state accounting; "killed: <why>" would be an
   unbounded label value. *)
let terminal_label = function
  | Completed -> "completed"
  | Cancelled -> "cancelled"
  | Killed _ -> "killed"
  | Pending | Running | Suspended -> assert false

let set_state t job state =
  let from_state = job.state in
  if from_state <> state then begin
    job.state <- state;
    (if Grid_obs.Obs.enabled t.obs then
       match state with
       | Completed | Cancelled | Killed _ ->
         (* walltime_used is settled before terminal transitions. *)
         Grid_obs.Obs.incr t.obs
           ~labels:[ ("state", terminal_label state) ]
           "lrm_jobs_total";
         Grid_obs.Obs.observe t.obs "lrm_job_walltime_seconds" job.walltime_used
       | Running ->
         (* First run slice only: queue wait is submission-to-first-start,
            not time spent suspended. *)
         if job.walltime_used = 0.0 then
           Grid_obs.Obs.observe t.obs "lrm_queue_wait_seconds"
             (Grid_sim.Engine.now t.engine -. job.submitted_at)
       | Pending | Suspended -> ());
    emit t (State_changed { job; from_state })
  end

let find_job t id =
  match Hashtbl.find_opt t.jobs id with
  | Some job -> Ok job
  | None -> Error (Unknown_job id)

(* --- Allocation ----------------------------------------------------- *)

(* First-fit across nodes; jobs may span nodes. *)
let try_allocate t cpus =
  if free_cpus t < cpus then None
  else begin
    let needed = ref cpus in
    let taken = ref [] in
    List.iter
      (fun node ->
        if !needed > 0 && node.free > 0 then begin
          let take = min node.free !needed in
          node.free <- node.free - take;
          needed := !needed - take;
          taken := (node, take) :: !taken
        end)
      t.nodes;
    assert (!needed = 0);
    Some !taken
  end

let release allocation =
  List.iter (fun (node, n) -> node.free <- node.free + n) allocation

(* --- Scheduling ------------------------------------------------------ *)

let job_order a b =
  let by_queue = compare b.queue.priority a.queue.priority in
  if by_queue <> 0 then by_queue
  else
    let by_prio = compare b.priority a.priority in
    if by_prio <> 0 then by_prio else compare a.arrival b.arrival

(* Remaining walltime budget: the tighter of job and queue caps. *)
let walltime_left job =
  let caps =
    List.filter_map (fun c -> c) [ job.spec.walltime_limit; job.queue.max_walltime ]
  in
  match caps with
  | [] -> infinity
  | caps -> List.fold_left min infinity caps -. job.walltime_used

let rec schedule_pass t =
  let now = Grid_sim.Engine.now t.engine in
  let candidates = List.sort job_order t.pending in
  let started = ref false in
  List.iter
    (fun job ->
      if job.state = Pending then begin
        match try_allocate t job.spec.cpus with
        | None -> ()
        | Some allocation ->
          t.pending <- List.filter (fun j -> j != job) t.pending;
          job.allocation <- allocation;
          job.started_at <- now;
          job.generation <- job.generation + 1;
          started := true;
          set_state t job Running;
          let budget = walltime_left job in
          let run_for = min job.remaining budget in
          let generation = job.generation in
          let timeout = job.remaining > budget in
          Grid_sim.Engine.schedule_after t.engine run_for (fun () ->
              complete t job ~generation ~timeout)
      end)
    candidates;
  if !started then update_gauges t

and complete t job ~generation ~timeout =
  (* Stale event: the job was suspended/cancelled since this was set. *)
  if job.generation = generation && job.state = Running then begin
    let now = Grid_sim.Engine.now t.engine in
    let ran = now -. job.started_at in
    job.walltime_used <- job.walltime_used +. ran;
    job.remaining <- Float.max 0.0 (job.remaining -. ran);
    release job.allocation;
    job.allocation <- [];
    update_gauges t;
    if timeout then set_state t job (Killed "walltime exceeded")
    else set_state t job Completed;
    schedule_pass t
  end

(* --- Operations -------------------------------------------------------- *)

let count_submission t outcome =
  if Grid_obs.Obs.enabled t.obs then
    Grid_obs.Obs.incr t.obs ~labels:[ ("outcome", outcome) ] "lrm_submissions_total"

let submit t (spec : spec) =
  if spec.cpus <= 0 then invalid_arg "Lrm.submit: cpus must be positive";
  if spec.duration < 0.0 then invalid_arg "Lrm.submit: negative duration";
  let queue_result =
    match spec.queue with
    | None -> Ok t.default_queue
    | Some name -> begin
      match List.find_opt (fun q -> q.queue_name = name) t.queues with
      | Some q -> Ok q
      | None -> Error (Unknown_queue name)
    end
  in
  match queue_result with
  | Error _ as e ->
    count_submission t "rejected";
    e
  | Ok queue ->
    if spec.cpus > capacity t then begin
      count_submission t "rejected";
      Error (Too_many_cpus { requested = spec.cpus; capacity = capacity t })
    end
    else begin
      count_submission t "accepted";
      t.arrivals <- t.arrivals + 1;
      let job =
        { id = Grid_util.Ids.job ();
          spec;
          queue;
          submitted_at = Grid_sim.Engine.now t.engine;
          priority = 0;
          state = Pending;
          remaining = spec.duration;
          walltime_used = 0.0;
          started_at = Grid_sim.Engine.now t.engine;
          allocation = [];
          generation = 0;
          arrival = t.arrivals }
      in
      Hashtbl.replace t.jobs job.id job;
      t.pending <- t.pending @ [ job ];
      emit t (State_changed { job; from_state = Pending });
      schedule_pass t;
      Ok job.id
    end

(* Account running time when a job leaves the Running state early. *)
let checkpoint_run t job =
  let now = Grid_sim.Engine.now t.engine in
  let ran = now -. job.started_at in
  job.walltime_used <- job.walltime_used +. ran;
  job.remaining <- Float.max 0.0 (job.remaining -. ran);
  release job.allocation;
  job.allocation <- [];
  update_gauges t;
  job.generation <- job.generation + 1

let cancel t id =
  match find_job t id with
  | Error _ as e -> e
  | Ok job -> begin
    match job.state with
    | Pending ->
      t.pending <- List.filter (fun j -> j != job) t.pending;
      set_state t job Cancelled;
      Ok id
    | Running ->
      checkpoint_run t job;
      set_state t job Cancelled;
      schedule_pass t;
      Ok id
    | Suspended ->
      set_state t job Cancelled;
      Ok id
    | Completed | Cancelled | Killed _ ->
      Error (Invalid_transition { job = id; state = job.state; operation = "cancel" })
  end

let suspend t id =
  match find_job t id with
  | Error _ as e -> e
  | Ok job -> begin
    match job.state with
    | Running ->
      checkpoint_run t job;
      set_state t job Suspended;
      schedule_pass t;
      Ok id
    | Pending | Suspended | Completed | Cancelled | Killed _ ->
      Error (Invalid_transition { job = id; state = job.state; operation = "suspend" })
  end

let resume t id =
  match find_job t id with
  | Error _ as e -> e
  | Ok job -> begin
    match job.state with
    | Suspended ->
      set_state t job Pending;
      t.pending <- job :: t.pending;
      schedule_pass t;
      Ok id
    | Pending | Running | Completed | Cancelled | Killed _ ->
      Error (Invalid_transition { job = id; state = job.state; operation = "resume" })
  end

let set_priority t id priority =
  match find_job t id with
  | Error _ as e -> e
  | Ok job ->
    job.priority <- priority;
    schedule_pass t;
    Ok id

type status = {
  job_state : state;
  job_remaining : float;
}

let query t id =
  match find_job t id with
  | Error _ as e -> e
  | Ok job ->
    Ok
      { job_state = job.state; job_remaining = job.remaining }

let jobs t = Hashtbl.fold (fun _ job acc -> job :: acc) t.jobs []

let running_jobs t = List.filter (fun j -> j.state = Running) (jobs t)
let pending_jobs t = List.filter (fun j -> j.state = Pending) (jobs t)

(* Invariant checked by the property tests: allocations never exceed any
   node's capacity, and bookkeeping is consistent. *)
let invariant_holds t =
  List.for_all (fun n -> n.free >= 0 && n.free <= n.cpus) t.nodes
  &&
  let allocated =
    List.fold_left
      (fun acc j -> acc + List.fold_left (fun a (_, c) -> a + c) 0 j.allocation)
      0 (running_jobs t)
  in
  allocated = cpus_in_use t
