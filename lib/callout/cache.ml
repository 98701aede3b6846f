(* Bounded LRU cache over authorization callout decisions.

   The callout runs before job creation and before every management
   action on a running job (Section 5.2), so the same (requester, action,
   job) question is asked over and over while a job is polled. Entries
   are keyed on everything the flat-file PEP's answer can depend on —
   requester DN, action, job id, jobtag, jobowner, a stable fingerprint
   of the submitted RSL — plus the policy epoch, so a policy reload
   (epoch bump, see Compile) orphans every prior entry by construction.

   Safety rules, in decreasing order of importance:

     - Only definite answers are cached: [Ok ()] and [Denied]. A
       [System_error]/[Bad_configuration] is a statement about the
       authorization system's health, not about policy, and must be
       re-tried at the backend every time. For the same reason the
       fail-open degradation combinator must wrap *outside* the cache —
       composed that way, a degraded permit is a conversion applied to an
       uncached error and can never be stored.

     - An expired (or not-yet-valid) requester credential bypasses the
       cache entirely: the authentication layer owns that refusal, and a
       cached permit must not outlive the proof that earned it. Entries
       written under a live credential expire no later than the
       credential's chain does.

     - TTL is simulated time ([now] is typically the engine clock), so
       expiry is deterministic in tests and benches.

   The LRU is an intrusive doubly-linked list over the hash table's
   nodes: hit, insert and eviction are all O(1). *)

type node = {
  key : string;
  value : Callout.decision;
  expires_at : float;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  ttl : float;
  now : unit -> float;
  epoch : (unit -> int) option;
  revision : (unit -> int) option;
  extra_deadline : Grid_gsi.Credential.t -> float option;
  revoked : Grid_gsi.Credential.t -> bool;
  obs : Grid_obs.Obs.t;
  table : (string, node) Hashtbl.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable last_epoch : int option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable bypasses : int;
}

let create ?(capacity = 1024) ?(ttl = 300.0) ?(obs = Grid_obs.Obs.noop) ?epoch ?revision
    ?(extra_deadline = fun _ -> None) ?(revoked = fun _ -> false) ~now () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  if ttl <= 0.0 then invalid_arg "Cache.create: ttl must be positive";
  { capacity;
    ttl;
    now;
    epoch;
    revision;
    extra_deadline;
    revoked;
    obs;
    table = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    last_epoch = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    bypasses = 0 }

let size t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let invalidations t = t.invalidations
let bypasses t = t.bypasses

(* --- Intrusive LRU list ------------------------------------------------ *)

let detach t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let remove_node t node =
  detach t node;
  Hashtbl.remove t.table node.key

(* --- Metrics ----------------------------------------------------------- *)

let note_size t =
  Grid_obs.Obs.set_gauge t.obs "authz_cache_size" (float_of_int (Hashtbl.length t.table))

let note_eviction t =
  t.evictions <- t.evictions + 1;
  Grid_obs.Obs.incr t.obs "authz_cache_evictions_total"

(* --- Invalidation ------------------------------------------------------ *)

let invalidate t =
  let n = Hashtbl.length t.table in
  if n > 0 then begin
    Hashtbl.reset t.table;
    t.head <- None;
    t.tail <- None;
    t.invalidations <- t.invalidations + n;
    Grid_obs.Obs.incr t.obs ~by:(float_of_int n) "authz_cache_invalidations_total";
    note_size t
  end

(* --- Keys -------------------------------------------------------------- *)

(* One-slot physical-equality memo: workload generators and the job
   manager hold on to the same clause value across the repeated queries
   of a job's lifetime, so the (allocating) rendering happens once per
   clause instead of once per lookup. Structural behavior is unchanged —
   a memo hit returns the identical string the rendering would. *)
let rsl_fingerprint_memo : (Grid_rsl.Ast.clause * string) option ref = ref None

let rsl_fingerprint = function
  | None -> ""
  | Some clause -> begin
    match !rsl_fingerprint_memo with
    | Some (c, s) when c == clause -> s
    | _ ->
      let s = Grid_rsl.Ast.clause_to_string clause in
      rsl_fingerprint_memo := Some (clause, s);
      s
  end

(* Length-prefixed part encoding. Joining components with a separator
   byte is not injective once a component can contain that byte (a
   hand-built DN value may hold any byte, including '\x00' and '\x01'),
   and two different queries must never share a key — a collision here
   is a cross-principal cache hit. [<len>.<bytes>] is unambiguous
   whatever the bytes are; the key-collision QCheck suite in
   [test_callout] pins this. *)
let add_part buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf '.';
  Buffer.add_string buf s

(* Component-wise DN encoding (values may contain '/', '=', or any
   separator byte). *)
let dn_key (dn : Grid_gsi.Dn.t) =
  let buf = Buffer.create 64 in
  List.iter
    (fun (r : Grid_gsi.Dn.rdn) ->
      add_part buf r.attr;
      add_part buf r.value)
    dn;
  Buffer.contents buf

let opt_key f = function None -> "-" | Some v -> "+" ^ f v

(* Built into one buffer — byte-identical to length-prefix-encoding each
   part and concatenating (the encoding test_callout pins), without the
   intermediate part list and per-part strings. *)
let query_key ~scope ~epoch ?revision (q : Callout.query) =
  let buf = Buffer.create 96 in
  add_part buf scope;
  add_part buf (string_of_int epoch);
  add_part buf (opt_key string_of_int revision);
  add_part buf (dn_key q.requester);
  add_part buf (Grid_policy.Types.Action.to_string q.action);
  add_part buf (opt_key Fun.id q.job_id);
  add_part buf (opt_key Fun.id q.jobtag);
  add_part buf (opt_key dn_key q.job_owner);
  add_part buf (rsl_fingerprint q.rsl);
  Buffer.contents buf

(* --- Credential gate --------------------------------------------------- *)

let credential_live ~now (cred : Grid_gsi.Credential.t) =
  cred.chain <> []
  && List.for_all (fun c -> Grid_gsi.Cert.valid_at c ~now) cred.chain

let credential_deadline (cred : Grid_gsi.Credential.t) =
  List.fold_left
    (fun acc (c : Grid_gsi.Cert.t) -> Float.min acc c.not_after)
    infinity cred.chain

(* --- The combinator ---------------------------------------------------- *)

let cacheable : Callout.decision -> bool = function
  | Ok () | Error (Callout.Denied _) -> true
  | Error (Callout.System_error _ | Callout.Bad_configuration _) -> false

(* A policy reload bumped the epoch: every live entry is stale (its key
   carries the old epoch and can never be probed again), so flush and
   account the loss as invalidation. *)
let flush_on_epoch t epoch =
  (match t.last_epoch with
  | Some e when e <> epoch -> invalidate t
  | Some _ | None -> ());
  t.last_epoch <- Some epoch

(* A live node for [key], with past-deadline entries evicted in passing. *)
let probe t ~now key =
  match Hashtbl.find_opt t.table key with
  | Some node when now < node.expires_at -> Some node
  | Some node ->
    remove_node t node;
    note_eviction t;
    note_size t;
    None
  | None -> None

let serve_hit t ~scope ~epoch node =
  detach t node;
  push_front t node;
  t.hits <- t.hits + 1;
  Grid_obs.Obs.incr t.obs "authz_cache_hits_total";
  (* The epoch the cached answer was computed under equals the epoch
     in the probe key, so a hit served after a reload propagated is a
     stale-epoch violation the monitor can spot from this event. *)
  Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.hit"
    [ ("scope", scope); ("epoch", string_of_int epoch);
      ("outcome", Callout.outcome_label node.value) ];
  node.value

let store t ~now ~credential key decision =
  if cacheable decision then begin
    let deadline =
      match credential with
      | Some cred ->
        let d = Float.min (now +. t.ttl) (credential_deadline cred) in
        (* A credential can carry a grant (an STS token) that dies before
           the chain does; the entry must not outlive either. *)
        (match t.extra_deadline cred with
        | None -> d
        | Some extra -> Float.min d extra)
      | None -> now +. t.ttl
    in
    if deadline > now then begin
      if Hashtbl.length t.table >= t.capacity then begin
        match t.tail with
        | Some lru ->
          remove_node t lru;
          note_eviction t
        | None -> ()
      end;
      let node = { key; value = decision; expires_at = deadline; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node;
      note_size t
    end
  end

let with_cache t ?(scope = "authz") (backend : Callout.t) : Callout.t =
 fun q ->
  let now = t.now () in
  let epoch = match t.epoch with None -> 0 | Some f -> f () in
  (* Revision (tuple-store writes under the ReBAC PEP) participates in
     the key but does not flush: unlike an epoch bump — a wholesale
     policy replacement — a revision bump invalidates no *other*
     revision's entries, it just stops them being probed; the LRU ages
     them out. *)
  let revision = Option.map (fun f -> f ()) t.revision in
  flush_on_epoch t epoch;
  match q.Callout.requester_credential with
  | Some cred when not (credential_live ~now cred) ->
    (* Expired requester credential: the cache neither answers for it nor
       learns from it — the backend stack produces the authoritative
       result. *)
    t.bypasses <- t.bypasses + 1;
    Grid_obs.Obs.incr t.obs "authz_cache_bypass_total";
    Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.bypass"
      [ ("scope", scope); ("reason", "credential_expired") ];
    backend q
  | Some cred when t.revoked cred ->
    (* Revoked-but-unexpired credential: a permit cached before the
       revocation must not answer for it, and nothing learned now may
       outlive the next CRL read — so, like expiry, the backend stack
       owns the refusal. *)
    t.bypasses <- t.bypasses + 1;
    Grid_obs.Obs.incr t.obs "authz_cache_bypass_total";
    Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.bypass"
      [ ("scope", scope); ("reason", "credential_revoked") ];
    backend q
  | credential -> begin
    let key = query_key ~scope ~epoch ?revision q in
    match probe t ~now key with
    | Some node -> serve_hit t ~scope ~epoch node
    | None ->
      t.misses <- t.misses + 1;
      Grid_obs.Obs.incr t.obs "authz_cache_misses_total";
      Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.miss"
        [ ("scope", scope); ("epoch", string_of_int epoch) ];
      let decision = backend q in
      store t ~now ~credential key decision;
      decision
  end

(* --- Batched lookup ----------------------------------------------------- *)

(* One cache pass for a whole batch. The many lane classifies every
   query in one sweep — live credential + table hit is served on the
   spot; expired-credential bypasses and cache misses are collected into
   a single sub-batch for the backend's many lane, with within-batch
   duplicate keys collapsed onto one representative ask (a batch is one
   simulated instant: the sequential single-shot path would have served
   the duplicates from the entry the representative just stored, so
   collapsing answers identically for cacheable results and spares a
   failing backend the hammering for non-cacheable ones). Bypasses are
   never stored; representative answers are stored under the
   representative's credential deadline, exactly as single-shot. Answers
   scatter back by original index, so batch order is preserved. *)
let with_cache_many t ?(scope = "authz") (backend : Callout.Batch.t) : Callout.Batch.t =
  let single = with_cache t ~scope (Callout.Batch.callout backend) in
  let many (qs : Callout.query array) =
    let n = Array.length qs in
    let now = t.now () in
    let epoch = match t.epoch with None -> 0 | Some f -> f () in
    let revision = Option.map (fun f -> f ()) t.revision in
    flush_on_epoch t epoch;
    let results = Array.make n Callout.permitted in
    (* Sub-batch entries destined for the backend, reversed:
       (original index, key when this is a representative miss —
       [None] marks a credential bypass). *)
    let sub = ref [] in
    let sub_count = ref 0 in
    let rep_slot : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let dups = ref [] in
    let bypasses = ref 0 in
    let misses = ref 0 in
    for i = 0 to n - 1 do
      let q = qs.(i) in
      match q.Callout.requester_credential with
      | Some cred when not (credential_live ~now cred) ->
        incr bypasses;
        Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.bypass"
          [ ("scope", scope); ("reason", "credential_expired") ];
        sub := (i, None) :: !sub;
        incr sub_count
      | Some cred when t.revoked cred ->
        incr bypasses;
        Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.bypass"
          [ ("scope", scope); ("reason", "credential_revoked") ];
        sub := (i, None) :: !sub;
        incr sub_count
      | _ -> begin
        let key = query_key ~scope ~epoch ?revision q in
        match probe t ~now key with
        | Some node -> results.(i) <- serve_hit t ~scope ~epoch node
        | None -> begin
          match Hashtbl.find_opt rep_slot key with
          | Some slot -> dups := (i, slot) :: !dups
          | None ->
            incr misses;
            Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.miss"
              [ ("scope", scope); ("epoch", string_of_int epoch) ];
            Hashtbl.add rep_slot key !sub_count;
            sub := (i, Some key) :: !sub;
            incr sub_count
        end
      end
    done;
    let entries = Array.of_list (List.rev !sub) in
    if Array.length entries > 0 then begin
      let batch = Array.map (fun (i, _) -> qs.(i)) entries in
      let answers = Callout.Batch.evaluate_many backend batch in
      Array.iteri
        (fun slot (i, key_opt) ->
          let decision = answers.(slot) in
          results.(i) <- decision;
          match key_opt with
          | None -> () (* bypass: the cache never learns from it *)
          | Some key ->
            store t ~now ~credential:qs.(i).Callout.requester_credential key decision)
        entries
    end;
    (* Fan representative answers out to within-batch duplicates; each
       counts as the hit it would have been on the sequential path. *)
    List.iter
      (fun (i, slot) ->
        let rep_index, _ = entries.(slot) in
        let decision = results.(rep_index) in
        results.(i) <- decision;
        t.hits <- t.hits + 1;
        Grid_obs.Obs.incr t.obs "authz_cache_hits_total";
        Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.hit"
          [ ("scope", scope); ("epoch", string_of_int epoch);
            ("outcome", Callout.outcome_label decision) ])
      !dups;
    if !bypasses > 0 then begin
      t.bypasses <- t.bypasses + !bypasses;
      Grid_obs.Obs.incr t.obs ~by:(float_of_int !bypasses) "authz_cache_bypass_total"
    end;
    if !misses > 0 then begin
      t.misses <- t.misses + !misses;
      Grid_obs.Obs.incr t.obs ~by:(float_of_int !misses) "authz_cache_misses_total"
    end;
    results
  in
  Callout.Batch.make ~single ~many

let pp ppf t =
  let lookups = t.hits + t.misses in
  Fmt.pf ppf
    "authz decision cache: capacity=%d size=%d hits=%d misses=%d hit_rate=%s \
     evictions=%d invalidations=%d bypasses=%d"
    t.capacity (size t) t.hits t.misses
    (if lookups = 0 then "n/a"
     else Printf.sprintf "%.1f%%" (100.0 *. float_of_int t.hits /. float_of_int lookups))
    t.evictions t.invalidations t.bypasses
