(* A resource broker.

   Answers "where can this job run?" by combining discovery (the
   directory), an optional authorization pre-check (evaluating the VO's
   own policy before burning a round trip on a doomed submission),
   capacity- and queue-aware ranking, and per-site circuit breakers. On
   submission failure at the best candidate it falls through to the next
   — the retry pattern every metascheduler built on GRAM used.

   Selection is deterministic per seed: candidates are ranked by free
   capacity (desc), then queue backlog (asc), and ties are broken by a
   seeded per-site rank fixed at [create] — two brokers built with the
   same seed over the same directory state produce the same order.
   Sites that stopped publishing (TTL staleness) or were deregistered
   never appear; sites whose submissions keep timing out (a partition,
   say) trip their breaker and are skipped until the cooldown admits a
   half-open probe. *)

type candidate = {
  name : string;
  resource : Grid_gram.Resource.t;
  breaker : Grid_util.Retry.Breaker.t;
  tiebreak : int;
}

type t = {
  directory : Directory.t;
  candidates : candidate list;
  (* Authorization pre-check: VO-side advice only. The resource's own
     PEP remains authoritative — the broker never bypasses it. *)
  precheck : (Grid_policy.Types.request -> bool) option;
  obs : Grid_obs.Obs.t;
  (* Per-plan salt folded into the tie-break: equal-capacity sites
     rotate across successive selections instead of funnelling every
     job to one site while published stats are stale. *)
  mutable plans : int;
}

type failure = {
  site : string;
  error : string;
}

type error =
  | No_candidates (* discovery produced nothing usable *)
  | All_failed of failure list

let error_to_string = function
  | No_candidates -> "no resource matches the request"
  | All_failed failures ->
    "all candidate resources refused:\n"
    ^ Grid_util.Strings.concat_map "\n"
        (fun f -> Printf.sprintf "  %s: %s" f.site f.error)
        failures

(* The seeded tie-break base: a pure function of (seed, name), folded
   with a per-plan salt at selection time. Equal-capacity ties therefore
   rotate across successive selections (load spreading while published
   stats are stale) yet the whole sequence replays identically for one
   seed and differently across seeds. *)
let tiebreak_of ~seed name = Hashtbl.hash (seed, name)

let create ?precheck ?(seed = 0) ?breaker_threshold ?breaker_cooldown ?obs ~directory
    candidates =
  { directory;
    candidates =
      List.map
        (fun resource ->
          let name = Grid_gram.Resource.name resource in
          { name;
            resource;
            breaker =
              Grid_util.Retry.Breaker.create ?failure_threshold:breaker_threshold
                ?cooldown:breaker_cooldown ();
            tiebreak = tiebreak_of ~seed name })
        candidates;
    precheck;
    obs = Option.value obs ~default:Grid_obs.Obs.noop;
    plans = 0 }

let now t = Grid_sim.Engine.now (Directory.engine t.directory)

let breaker_state t name =
  List.find_opt (fun c -> c.name = name) t.candidates
  |> Option.map (fun c -> Grid_util.Retry.Breaker.state c.breaker ~now:(now t))

let skip t candidate reason =
  if Grid_obs.Obs.enabled t.obs then
    Grid_obs.Obs.incr t.obs
      ~labels:[ ("resource", candidate.name); ("reason", reason) ]
      "broker_skips_total"

(* Rank the discovered, fresh, capacity-fitting sites. The directory
   already excludes stale and deregistered entries; the broker overlays
   the breaker gate and its own ordering. *)
let plan_candidates t ~(job : Grid_rsl.Job.t) =
  let salt = t.plans in
  t.plans <- t.plans + 1;
  let entries =
    Directory.query ~min_free_cpus:job.Grid_rsl.Job.count ?queue:job.Grid_rsl.Job.queue
      t.directory
  in
  let scored =
    List.filter_map
      (fun (entry : Directory.entry) ->
        match
          List.find_opt
            (fun c -> c.name = entry.Directory.info.Directory.resource_name)
            t.candidates
        with
        | None -> None
        | Some c ->
          if not (Grid_util.Retry.Breaker.allow c.breaker ~now:(now t)) then begin
            skip t c "breaker_open";
            None
          end
          else
            let free, pending =
              match entry.Directory.latest with
              | Some s -> (s.Directory.free_cpus, s.Directory.pending_jobs)
              | None -> (0, 0)
            in
            Some (free, pending, c))
      entries
  in
  List.stable_sort
    (fun (free_a, pending_a, a) (free_b, pending_b, b) ->
      let c = compare free_b free_a in
      if c <> 0 then c
      else
        let c = compare pending_a pending_b in
        if c <> 0 then c
        else
          let c =
            compare (Hashtbl.hash (a.tiebreak, salt)) (Hashtbl.hash (b.tiebreak, salt))
          in
          if c <> 0 then c else String.compare a.name b.name)
    scored
  |> List.map (fun (_, _, c) -> c)

let plan t ~job = List.map (fun c -> c.resource) (plan_candidates t ~job)

let select = plan

(* Which submission outcomes implicate the site rather than the job:
   a timeout means the site (or the path to it) is unresponsive and
   feeds the breaker; any policy or protocol answer proves the site is
   alive and resets it. *)
let record_outcome t candidate outcome =
  match outcome with
  | Error (Grid_gram.Protocol.Request_timeout _) ->
    Grid_util.Retry.Breaker.failure candidate.breaker ~now:(now t)
  | Ok _ | Error _ -> Grid_util.Retry.Breaker.success candidate.breaker ~now:(now t)

(* External submission paths (the fleet's asynchronous lane) report their
   outcomes here so one shared breaker view covers every lane. *)
let observe t ~site outcome =
  match List.find_opt (fun c -> c.name = site) t.candidates with
  | None -> ()
  | Some c -> begin
    match outcome with
    | `Timeout -> Grid_util.Retry.Breaker.failure c.breaker ~now:(now t)
    | `Answered -> Grid_util.Retry.Breaker.success c.breaker ~now:(now t)
  end

let submit t ~(identity : Grid_gsi.Identity.t) ~rsl =
  match Grid_rsl.Job.of_string rsl with
  | Error e -> Error (All_failed [ { site = "(parse)"; error = Grid_rsl.Job.error_to_string e } ])
  | Ok job ->
    let authorized_by_precheck =
      match t.precheck with
      | None -> true
      | Some check ->
        check
          (Grid_policy.Types.start_request
             ~subject:(Grid_gsi.Identity.effective_subject identity)
             ~job:(Grid_rsl.Job.clause job))
    in
    if not authorized_by_precheck then
      Error
        (All_failed
           [ { site = "(broker pre-check)";
               error = "request is outside the community policy; not submitted" } ])
    else begin
      match plan_candidates t ~job with
      | [] -> Error No_candidates
      | candidates ->
        let rec try_each failures = function
          | [] -> Error (All_failed (List.rev failures))
          | c :: rest -> begin
            let client = Grid_gram.Client.create ~identity ~resource:c.resource () in
            let result = Grid_gram.Client.submit_sync client ~rsl in
            record_outcome t c result;
            match result with
            | Ok reply ->
              if Grid_obs.Obs.enabled t.obs then
                Grid_obs.Obs.incr t.obs
                  ~labels:[ ("resource", c.name) ]
                  "broker_selections_total";
              Ok (c.name, reply)
            | Error e ->
              try_each
                ({ site = c.name;
                   error = Grid_gram.Protocol.submit_error_to_string e }
                :: failures)
                rest
          end
        in
        try_each [] candidates
    end
