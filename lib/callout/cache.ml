(* Bounded LRU cache over authorization callout decisions.

   The callout runs before job creation and before every management
   action on a running job (Section 5.2), so the same (requester, action,
   job) question is asked over and over while a job is polled. Entries
   are keyed on everything the flat-file PEP's answer can depend on —
   requester DN, action, job id, jobtag, jobowner, the submitted RSL
   clause — plus the policy epoch, so a policy reload (epoch bump, see
   Compile) orphans every prior entry by construction. The key is a
   record of those parts, taken from the query as they are and compared
   structurally: nothing is rendered to build it.

   Safety rules, in decreasing order of importance:

     - Only definite answers are cached: [Ok ()] and [Denied]. A
       [System_error]/[Bad_configuration] is a statement about the
       authorization system's health, not about policy, and must be
       re-tried at the backend every time.

     - An expired (or not-yet-valid) requester credential bypasses the
       cache entirely: the authentication layer owns that refusal, and a
       cached permit must not outlive the proof that earned it. Entries
       written under a live credential expire no later than the
       credential's chain does.

     - TTL is simulated time ([now] is typically the engine clock), so
       expiry is deterministic in tests and benches.

   The LRU is an intrusive doubly-linked list over the hash table's
   nodes: hit, insert and eviction are all O(1). *)

(* --- Keys -------------------------------------------------------------- *)

(* Two different queries must never share a key — a shared key is a
   cross-principal cache hit. Structural equality over the parts
   themselves gives that whatever bytes a DN value holds; the
   key-collision QCheck suite in [test_callout] pins it. *)
type key = {
  scope : string;
  epoch : int;
  revision : int option;
  requester : Grid_gsi.Dn.t;
  action : Grid_policy.Types.Action.t;
  job_id : string option;
  jobtag : string option;
  job_owner : Grid_gsi.Dn.t option;
  rsl : Grid_rsl.Ast.clause option;
}

let query_key ~scope ~epoch ?revision (q : Callout.query) =
  { scope;
    epoch;
    revision;
    requester = q.Callout.requester;
    action = q.Callout.action;
    job_id = q.Callout.job_id;
    jobtag = q.Callout.jobtag;
    job_owner = q.Callout.job_owner;
    rsl = q.Callout.rsl }

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = ( = )

  (* DNs and the clause are folded part by part: the polymorphic hash
     stops after ten meaningful words, and the DNs of one organization
     differ only in their last components. *)
  let hash k =
    let h = Hashtbl.seeded_hash (Grid_gsi.Dn.hash k.requester) k.scope in
    let h = Hashtbl.seeded_hash h k.epoch in
    let h = Hashtbl.seeded_hash h k.revision in
    let h = Hashtbl.seeded_hash h k.action in
    let h = Hashtbl.seeded_hash h k.job_id in
    let h = Hashtbl.seeded_hash h k.jobtag in
    let h =
      match k.job_owner with
      | None -> h
      | Some owner -> Hashtbl.seeded_hash h (Grid_gsi.Dn.hash owner)
    in
    match k.rsl with None -> h | Some clause -> List.fold_left Hashtbl.seeded_hash h clause
end)

type node = {
  key : key;
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
  table : node Key_tbl.t;
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
    table = Key_tbl.create (min capacity 1024);
    head = None;
    tail = None;
    last_epoch = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    bypasses = 0 }

let size t = Key_tbl.length t.table
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
  Key_tbl.remove t.table node.key

(* --- Metrics ----------------------------------------------------------- *)

let note_size t =
  Grid_obs.Obs.set_gauge t.obs "authz_cache_size" (float_of_int (Key_tbl.length t.table))

let note_eviction t =
  t.evictions <- t.evictions + 1;
  Grid_obs.Obs.incr t.obs "authz_cache_evictions_total"

(* --- Invalidation ------------------------------------------------------ *)

let invalidate t =
  let n = Key_tbl.length t.table in
  if n > 0 then begin
    Key_tbl.reset t.table;
    t.head <- None;
    t.tail <- None;
    t.invalidations <- t.invalidations + n;
    Grid_obs.Obs.incr t.obs ~by:(float_of_int n) "authz_cache_invalidations_total";
    note_size t
  end

(* --- Credential gate --------------------------------------------------- *)

let credential_live ~now (cred : Grid_gsi.Credential.t) =
  cred.chain <> []
  && List.for_all (fun c -> Grid_gsi.Cert.valid_at c ~now) cred.chain

let credential_deadline (cred : Grid_gsi.Credential.t) =
  List.fold_left
    (fun acc (c : Grid_gsi.Cert.t) -> Float.min acc c.not_after)
    infinity cred.chain

(* --- The combinator ---------------------------------------------------- *)

(* Why a query skips the cache, if it does. An expired (or not yet
   valid) requester credential: the cache neither answers for it nor
   learns from it — the backend stack produces the authoritative result.
   A revoked-but-unexpired one: a permit cached before the revocation
   must not answer for it, and nothing learned now may outlive the next
   CRL read — so, like expiry, the backend stack owns the refusal. *)
let bypass_reason t ~now = function
  | Some cred when not (credential_live ~now cred) -> Some "credential_expired"
  | Some cred when t.revoked cred -> Some "credential_revoked"
  | Some _ | None -> None

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
  match Key_tbl.find_opt t.table key with
  | Some node when now < node.expires_at -> Some node
  | Some node ->
    remove_node t node;
    note_eviction t;
    note_size t;
    None
  | None -> None

let note_hit t ~scope ~epoch decision =
  t.hits <- t.hits + 1;
  Grid_obs.Obs.incr t.obs "authz_cache_hits_total";
  (* The epoch the cached answer was computed under equals the epoch
     in the probe key, so a hit served after a reload propagated is a
     stale-epoch violation the monitor can spot from this event. *)
  Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.hit"
    [ ("scope", scope); ("epoch", string_of_int epoch);
      ("outcome", Callout.outcome_label decision) ];
  decision

let serve_hit t ~scope ~epoch node =
  detach t node;
  push_front t node;
  note_hit t ~scope ~epoch node.value

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
      if Key_tbl.length t.table >= t.capacity then begin
        match t.tail with
        | Some lru ->
          remove_node t lru;
          note_eviction t
        | None -> ()
      end;
      let node = { key; value = decision; expires_at = deadline; prev = None; next = None } in
      Key_tbl.replace t.table key node;
      push_front t node;
      note_size t
    end
  end

(* One cache pass for a whole batch; a single query is a batch of one.
   The pass classifies every query in one sweep — live credential +
   table hit is served on the spot; credential bypasses and cache misses
   are collected into a single sub-batch for the backend's many lane,
   with within-batch duplicate keys collapsed onto one representative
   ask (a batch is one simulated instant: asked one by one, the
   duplicates would have been served from the entry the representative
   just stored, so collapsing answers identically for cacheable results
   and spares a failing backend the hammering for non-cacheable ones).
   Bypasses are never stored; representative answers are stored under
   the representative's credential deadline. Answers scatter back by
   original index, so batch order is preserved. *)
let with_cache_many t ?(scope = "authz") (backend : Callout.Batch.t) : Callout.Batch.t =
  let many (qs : Callout.query array) =
    let n = Array.length qs in
    let now = t.now () in
    let epoch = match t.epoch with None -> 0 | Some f -> f () in
    (* Revision (tuple-store writes under the ReBAC PEP) participates in
       the key but does not flush: unlike an epoch bump — a wholesale
       policy replacement — a revision bump invalidates no *other*
       revision's entries, it just stops them being probed; the LRU ages
       them out. *)
    let revision = Option.map (fun f -> f ()) t.revision in
    flush_on_epoch t epoch;
    let results = Array.make n Callout.permitted in
    (* Sub-batch entries destined for the backend, reversed:
       (original index, key when this is a representative miss —
       [None] marks a credential bypass). *)
    let sub = ref [] in
    let sub_count = ref 0 in
    (* A batch of one holds no duplicate, so it gets no representative
       table. *)
    let rep_slot : int Key_tbl.t option =
      if n > 1 then Some (Key_tbl.create (min n 16)) else None
    in
    let dups = ref [] in
    let bypasses = ref 0 in
    let misses = ref 0 in
    for i = 0 to n - 1 do
      let q = qs.(i) in
      match bypass_reason t ~now q.Callout.requester_credential with
      | Some reason ->
        incr bypasses;
        Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.bypass"
          [ ("scope", scope); ("reason", reason) ];
        sub := (i, None) :: !sub;
        incr sub_count
      | None -> begin
        let key = query_key ~scope ~epoch ?revision q in
        match probe t ~now key with
        | Some node -> results.(i) <- serve_hit t ~scope ~epoch node
        | None -> begin
          match Option.bind rep_slot (fun slots -> Key_tbl.find_opt slots key) with
          | Some slot -> dups := (i, slot) :: !dups
          | None ->
            incr misses;
            Grid_obs.Obs.emit t.obs ~layer:"cache" "cache.miss"
              [ ("scope", scope); ("epoch", string_of_int epoch) ];
            Option.iter (fun slots -> Key_tbl.add slots key !sub_count) rep_slot;
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
       counts as the hit it would have been asked one by one. *)
    List.iter
      (fun (i, slot) ->
        let rep_index, _ = entries.(slot) in
        results.(i) <- note_hit t ~scope ~epoch results.(rep_index))
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
  Callout.Batch.of_many many

let pp ppf t =
  let lookups = t.hits + t.misses in
  Fmt.pf ppf
    "authz decision cache: capacity=%d size=%d hits=%d misses=%d hit_rate=%s \
     evictions=%d invalidations=%d bypasses=%d"
    t.capacity (size t) t.hits t.misses
    (if lookups = 0 then "n/a"
     else Printf.sprintf "%.1f%%" (100.0 *. float_of_int t.hits /. float_of_int lookups))
    t.evictions t.invalidations t.bypasses
