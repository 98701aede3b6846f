(* The relationship-based policy evaluation point.

   Same shape as [File_pep.Compiled]: built from named policy sources,
   reloadable (a reload recompiles the tuple graph under a strictly
   larger policy epoch, drawn from the same process-global counter as
   every compiled PEP), and announced on the event bus with the same
   ["policy.epoch"] event the safety monitor dates its staleness window
   from. The extra dimension is the store *revision*: ad-hoc tuple
   writes through [store] advance it without an epoch change, and
   decision caches fold [revision] into their keys next to the epoch.

   Graph-side failures (depth budget exceeded, future token, expired
   snapshot) surface as [System_error] — the authorization system could
   not answer — never as [Denied]; default-deny is a policy stance, not
   an error-masking one. *)

type t = {
  obs : Grid_obs.Obs.t option;
  mutable plan : Compile.t;
  mutable store : Store.t;
  mutable nsources : int;
  (* Denial interning (same discipline as [File_pep]): messages for the
     few distinct (source, reason) denials are rendered once and the
     decision values shared; capped, and reset on reload because a new
     policy makes old denial shapes unreachable. *)
  interned : (Grid_policy.Combine.combined_decision, Grid_callout.Callout.decision) Hashtbl.t;
}

let note_epoch ?(kind = "reload") t =
  match t.obs with
  | None -> ()
  | Some obs ->
    Grid_obs.Obs.emit obs ~layer:"pep" "policy.epoch"
      [ ("epoch", string_of_int (Store.epoch t.store));
        ("sources", string_of_int t.nsources);
        ("cause", kind) ]

let create ?obs (sources : Grid_policy.Combine.source list) =
  let plan = Compile.of_sources sources in
  let store = Compile.load ~epoch:(Grid_policy.Compile.fresh_epoch ()) plan in
  let t =
    { obs; plan; store; nsources = List.length sources; interned = Hashtbl.create 16 }
  in
  note_epoch ~kind:"create" t;
  t

(* The new store gets a fresh (strictly larger) epoch, so zookies issued
   before the reload are older than every post-reload token and caches
   keyed on (epoch, revision) cannot serve stale decisions. *)
let reload t sources =
  let plan = Compile.of_sources sources in
  t.plan <- plan;
  t.store <- Compile.load ~epoch:(Grid_policy.Compile.fresh_epoch ()) plan;
  t.nsources <- List.length sources;
  Hashtbl.reset t.interned;
  note_epoch t

let store t = t.store
let epoch t = Store.epoch t.store
let revision t = Store.revision t.store
let head t = Store.head t.store

let decision_to_callout = function
  | Grid_policy.Combine.Permit -> Grid_callout.Callout.permitted
  | Grid_policy.Combine.Deny { source; reason } ->
    Error
      (Grid_callout.Callout.Denied
         (Printf.sprintf "%s: %s" source (Grid_policy.Eval.reason_to_string reason)))

let intern_cap = 1024

let intern_decision t = function
  | Grid_policy.Combine.Permit -> Grid_callout.Callout.permitted
  | Grid_policy.Combine.Deny _ as d -> begin
    match Hashtbl.find_opt t.interned d with
    | Some decision -> decision
    | None ->
      let decision = decision_to_callout d in
      if Hashtbl.length t.interned < intern_cap then Hashtbl.add t.interned d decision;
      decision
  end

let decide_request ?consistency t request =
  match Compile.decide ?obs:t.obs ?consistency t.plan t.store request with
  | Ok decision -> intern_decision t decision
  | Error e ->
    Error
      (Grid_callout.Callout.System_error ("rebac: " ^ Store.check_error_to_string e))

let callout_with ?consistency t : Grid_callout.Callout.t =
 fun query ->
  decide_request ?consistency t (Grid_callout.Callout.to_policy_request query)

(* The store is the single replica, so [Latest] already satisfies every
   issued token; a caller pinning [At_least z] or [Snapshot z] gets the
   token-respecting variants. *)
let callout t = callout_with t

(* Native batch lane: graph expansion cannot share work across distinct
   requests the way the compiled RSL index can, but management ticks
   repeat the same (subject, action, jobowner, jobtag) question across a
   job population — requests are plain data, so structurally equal
   requests are decided once (one graph expansion per distinct question,
   all within one snapshot) and the shared decision value scattered to
   every duplicate slot, in request order. *)
let batch t : Grid_callout.Callout.Batch.t =
  let single = callout t in
  let many qs =
    let n = Array.length qs in
    let results = Array.make n Grid_callout.Callout.permitted in
    let seen : (Grid_policy.Types.request, Grid_callout.Callout.decision) Hashtbl.t =
      Hashtbl.create (min n 64)
    in
    for i = 0 to n - 1 do
      let request = Grid_callout.Callout.to_policy_request qs.(i) in
      match Hashtbl.find_opt seen request with
      | Some decision -> results.(i) <- decision
      | None ->
        let decision = decide_request t request in
        Hashtbl.add seen request decision;
        results.(i) <- decision
    done;
    results
  in
  Grid_callout.Callout.Batch.make ~single ~many

let of_sources ?obs sources = callout (create ?obs sources)
