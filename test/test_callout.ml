(* Tests for grid_callout: the callout API, registry/config resolution,
   and the flat-file PEP. *)

open Grid_callout

let dn = Grid_gsi.Dn.parse

let start_query ?(who = "/O=Grid/CN=U") rsl =
  Callout.Query.make ~requester:(dn who) ~job_id:"job-1"
    (Callout.Query.Start (Grid_rsl.Parser.parse_clause_exn rsl))

let manage_query ?(who = "/O=Grid/CN=U") ~action ~owner ~tag () =
  Callout.Query.make ~requester:(dn who) ~job_id:"job-1"
    (Callout.Query.Management { action; job_owner = dn owner; jobtag = tag })

(* --- Combinators -------------------------------------------------------- *)

let test_all_conjunction () =
  let q = start_query "&(executable=x)" in
  Alcotest.(check bool) "both permit" true
    (Callout.all [ Callout.permit_all; Callout.permit_all ] q = Ok ());
  (match Callout.all [ Callout.permit_all; Callout.deny_all ~reason:"no" ] q with
  | Error (Callout.Denied _) -> ()
  | _ -> Alcotest.fail "denial not propagated");
  match Callout.all [] q with
  | Error (Callout.Bad_configuration _) -> ()
  | _ -> Alcotest.fail "empty chain must fail closed"

let test_all_first_error_wins () =
  let q = start_query "&(executable=x)" in
  match
    Callout.all [ Callout.failing ~message:"boom"; Callout.deny_all ~reason:"no" ] q
  with
  | Error (Callout.System_error "boom") -> ()
  | _ -> Alcotest.fail "first error should win"

let test_counting () =
  let c, count = Callout.counting Callout.permit_all in
  let q = start_query "&(executable=x)" in
  ignore (c q);
  ignore (c q);
  Alcotest.(check int) "two invocations" 2 (count ())

(* --- Resilience ------------------------------------------------------------ *)

(* The circuit breaker the MDS broker guards each candidate resource
   with, driven directly. *)
module Breaker = Grid_util.Retry.Breaker

let test_breaker_opens_and_half_open_recovery () =
  let breaker = Breaker.create ~failure_threshold:2 ~cooldown:10.0 () in
  (* Two failures trip the breaker. *)
  Breaker.failure breaker ~now:0.0;
  Breaker.failure breaker ~now:0.0;
  Alcotest.(check bool) "open after threshold" true
    (Breaker.state breaker ~now:0.0 = Breaker.Open);
  Alcotest.(check bool) "open breaker refuses" false (Breaker.allow breaker ~now:0.0);
  (* Cooldown elapses; the half-open probe succeeds and closes it. *)
  Alcotest.(check bool) "half-open after cooldown" true
    (Breaker.state breaker ~now:11.0 = Breaker.Half_open);
  Alcotest.(check bool) "half-open admits probe" true (Breaker.allow breaker ~now:11.0);
  Breaker.success breaker ~now:11.0;
  Alcotest.(check bool) "closed after successful probe" true
    (Breaker.state breaker ~now:11.0 = Breaker.Closed)

let test_breaker_failed_probe_reopens () =
  let breaker = Breaker.create ~failure_threshold:1 ~cooldown:5.0 () in
  Breaker.failure breaker ~now:0.0;
  Alcotest.(check bool) "probe admitted after cooldown" true (Breaker.allow breaker ~now:6.0);
  Breaker.failure breaker ~now:6.0;
  (* The probe failed: back to Open with a fresh cooldown from t=6. *)
  Alcotest.(check bool) "re-opened" true (Breaker.state breaker ~now:8.0 = Breaker.Open);
  Alcotest.(check bool) "half-open again after new cooldown" true
    (Breaker.state breaker ~now:11.5 = Breaker.Half_open)

let test_flaky_deterministic () =
  let q = start_query "&(executable=x)" in
  let outcomes seed =
    let rng = Grid_util.Rng.create ~seed in
    let c = Callout.flaky ~rng ~failure_probability:0.5 Callout.permit_all in
    List.init 50 (fun _ -> match c q with Ok () -> 'p' | Error _ -> 'f')
  in
  Alcotest.(check (list char)) "same seed, same fault sequence" (outcomes 3) (outcomes 3);
  let faults = List.length (List.filter (fun c -> c = 'f') (outcomes 3)) in
  Alcotest.(check bool) "faults actually injected" true (faults > 0 && faults < 50)

(* --- Registry / config --------------------------------------------------- *)

let test_registry_lookup () =
  let reg = Registry.create () in
  Registry.register reg ~library:"libauthz_file.so" ~symbol:"authz" Callout.permit_all;
  (match Registry.lookup reg ~library:"libauthz_file.so" ~symbol:"authz" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "registered symbol not found");
  (match Registry.lookup reg ~library:"libmissing.so" ~symbol:"authz" with
  | Error (Callout.Bad_configuration m) ->
    Alcotest.(check bool) "names the library" true
      (Grid_util.Strings.starts_with ~prefix:"cannot load library" m)
  | _ -> Alcotest.fail "missing library accepted");
  match Registry.lookup reg ~library:"libauthz_file.so" ~symbol:"nope" with
  | Error (Callout.Bad_configuration _) -> ()
  | _ -> Alcotest.fail "missing symbol accepted"

let config_text =
  {|# GRAM authorization callout configuration
globus_gram_jobmanager_authz   libauthz_file.so   authz_file_callout
other_type                     libother.so        other_symbol
|}

let test_config_parse () =
  let config = Config.load config_text in
  Alcotest.(check int) "two bindings" 2 (List.length (Config.bindings config));
  match Config.find config Config.gram_authz_type with
  | Some b ->
    Alcotest.(check string) "library" "libauthz_file.so" b.Config.library;
    Alcotest.(check string) "symbol" "authz_file_callout" b.Config.symbol
  | None -> Alcotest.fail "gram type not found"

let test_config_parse_errors () =
  (match Config.load_result "only_two_fields second" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short line accepted");
  match Config.load_result "a b c d" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "long line accepted"

let test_config_roundtrip () =
  let config = Config.load config_text in
  let config' = Config.load (Config.to_text config) in
  Alcotest.(check int) "same size" 2 (List.length (Config.bindings config'))

let test_config_resolution () =
  let reg = Registry.create () in
  Registry.register reg ~library:"libauthz_file.so" ~symbol:"authz_file_callout"
    Callout.permit_all;
  let config = Config.load config_text in
  (match Config.resolve config reg Config.gram_authz_type with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resolution failed: %s" (Callout.error_to_string e));
  (* Configured but not installed: the paper's missing-.so failure. *)
  (match Config.resolve config reg "other_type" with
  | Error (Callout.Bad_configuration _) -> ()
  | _ -> Alcotest.fail "unresolvable binding accepted");
  match Config.resolve config reg "unconfigured_type" with
  | Error (Callout.Bad_configuration _) -> ()
  | _ -> Alcotest.fail "unconfigured type accepted"

(* --- Flat-file PEP -------------------------------------------------------- *)

let test_file_pep_decisions () =
  let pep = File_pep.of_policy ~name:"vo" (Grid_policy.Figure3.get ()) in
  let permit =
    start_query ~who:Grid_policy.Figure3.kate_keahey
      "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"
  in
  Alcotest.(check bool) "permits" true (pep permit = Ok ());
  let deny =
    start_query ~who:Grid_policy.Figure3.kate_keahey
      "&(executable=rm)(directory=/)(jobtag=NFC)"
  in
  (match pep deny with
  | Error (Callout.Denied m) ->
    Alcotest.(check bool) "names the source" true
      (Grid_util.Strings.starts_with ~prefix:"vo:" m)
  | _ -> Alcotest.fail "bad executable authorized")

let test_file_pep_management () =
  let pep = File_pep.of_policy ~name:"vo" (Grid_policy.Figure3.get ()) in
  let q =
    manage_query ~who:Grid_policy.Figure3.kate_keahey
      ~action:Grid_policy.Types.Action.Cancel ~owner:Grid_policy.Figure3.bo_liu
      ~tag:(Some "NFC") ()
  in
  Alcotest.(check bool) "vo-wide cancel" true (pep q = Ok ())

let test_file_pep_of_texts_bad_policy_fails_closed () =
  let pep = File_pep.of_texts [ ("broken", "this is not a policy") ] in
  match pep (start_query "&(executable=x)") with
  | Error (Callout.System_error _) -> ()
  | _ -> Alcotest.fail "unparseable policy must be a system error"

let test_file_pep_of_texts_invalid_policy_fails_closed () =
  let pep = File_pep.of_texts [ ("invalid", "/O=Grid/CN=U: &(count < lots)") ] in
  match pep (start_query "&(executable=x)") with
  | Error (Callout.System_error _) -> ()
  | _ -> Alcotest.fail "invalid policy must be a system error"

let test_file_pep_of_texts_good () =
  let pep =
    File_pep.of_texts
      [ ("owner", "/O=Grid: &(action = start)(queue != reserved)");
        ("vo", "/O=Grid/CN=U: &(action = start)(executable = x)") ]
  in
  Alcotest.(check bool) "permits" true (pep (start_query "&(executable=x)") = Ok ());
  match pep (start_query "&(executable=x)(queue=reserved)") with
  | Error (Callout.Denied m) ->
    Alcotest.(check bool) "owner denied" true
      (Grid_util.Strings.starts_with ~prefix:"owner:" m)
  | _ -> Alcotest.fail "reserved queue authorized"

(* --- Decision cache ------------------------------------------------------ *)

(* A plain callout through the cache, one query at a time. *)
let cached ?scope cache (c : Callout.t) : Callout.t =
  Callout.Batch.check (Cache.with_cache_many cache ?scope (Callout.Batch.of_callout c))

(* Distinct-keyed management queries for churn tests. *)
let keyed_query ?credential ~job_id () =
  Callout.Query.make ~requester:(dn "/O=Grid/CN=U") ?credential ~job_id
    (Callout.Query.Management
       { action = Grid_policy.Types.Action.Information;
         job_owner = dn "/O=Grid/CN=U";
         jobtag = Some "NFC" })

let test_cache_hits_and_epoch_invalidation () =
  let clock = ref 0.0 in
  let epoch = ref 1 in
  let backend, calls = Callout.counting Callout.permit_all in
  let cache =
    Cache.create ~capacity:8 ~ttl:100.0 ~epoch:(fun () -> !epoch)
      ~now:(fun () -> !clock) ()
  in
  let pep = cached cache backend in
  let q = keyed_query ~job_id:"job-1" () in
  Alcotest.(check bool) "first answer" true (pep q = Ok ());
  Alcotest.(check bool) "second answer" true (pep q = Ok ());
  Alcotest.(check int) "one backend call, one hit" 1 (calls ());
  Alcotest.(check int) "hit counted" 1 (Cache.hits cache);
  (* policy reload: epoch bump must evict the cached permit *)
  incr epoch;
  Alcotest.(check bool) "post-reload answer" true (pep q = Ok ());
  Alcotest.(check int) "backend re-consulted after epoch bump" 2 (calls ());
  Alcotest.(check int) "stale entry counted as invalidated" 1 (Cache.invalidations cache)

let test_cache_caches_denials () =
  let clock = ref 0.0 in
  let backend, calls = Callout.counting (Callout.deny_all ~reason:"no") in
  let cache = Cache.create ~capacity:8 ~ttl:100.0 ~now:(fun () -> !clock) () in
  let pep = cached cache backend in
  let q = keyed_query ~job_id:"job-1" () in
  (match pep q with
  | Error (Callout.Denied _) -> ()
  | _ -> Alcotest.fail "expected denial");
  ignore (pep q);
  Alcotest.(check int) "denial served from cache" 1 (calls ())

let test_cache_ttl_expiry () =
  let clock = ref 0.0 in
  let backend, calls = Callout.counting Callout.permit_all in
  let cache = Cache.create ~capacity:8 ~ttl:10.0 ~now:(fun () -> !clock) () in
  let pep = cached cache backend in
  let q = keyed_query ~job_id:"job-1" () in
  ignore (pep q);
  clock := 5.0;
  ignore (pep q);
  Alcotest.(check int) "within ttl: cached" 1 (calls ());
  clock := 15.0;
  ignore (pep q);
  Alcotest.(check int) "past ttl: re-evaluated" 2 (calls ());
  Alcotest.(check int) "expiry counted as eviction" 1 (Cache.evictions cache)

let test_cache_expired_credential_bypasses () =
  let clock = ref 0.0 in
  let ca = Grid_gsi.Ca.create ~now:0.0 "/O=Grid/CN=Cache CA" in
  let identity = Grid_gsi.Identity.create ~ca ~now:0.0 ~lifetime:100.0 "/O=Grid/CN=U" in
  let credential = Grid_gsi.Credential.of_identity identity ~challenge:"c" in
  let backend, calls = Callout.counting Callout.permit_all in
  let cache = Cache.create ~capacity:8 ~ttl:1000.0 ~now:(fun () -> !clock) () in
  let pep = cached cache backend in
  let q = keyed_query ~credential ~job_id:"job-1" () in
  ignore (pep q);
  ignore (pep q);
  Alcotest.(check int) "live credential: cached" 1 (calls ());
  (* Even with a generous cache TTL, the entry dies with the credential:
     past its chain's expiry the cache is bypassed on both read and
     write. *)
  clock := 200.0;
  ignore (pep q);
  ignore (pep q);
  Alcotest.(check int) "expired credential: every call reaches the backend" 3 (calls ());
  Alcotest.(check int) "bypasses counted" 2 (Cache.bypasses cache)

let test_cache_revoked_credential_bypasses () =
  let clock = ref 0.0 in
  let trust = Grid_gsi.Ca.Trust_store.create () in
  let ca = Grid_gsi.Ca.create ~now:0.0 "/O=Grid/CN=Cache CA" in
  Grid_gsi.Ca.Trust_store.add trust (Grid_gsi.Ca.certificate ca);
  let identity = Grid_gsi.Identity.create ~ca ~now:0.0 ~lifetime:1e6 "/O=Grid/CN=U" in
  let credential = Grid_gsi.Credential.of_identity identity ~challenge:"c" in
  let backend, calls = Callout.counting Callout.permit_all in
  let cache =
    Cache.create ~capacity:8 ~ttl:1000.0
      ~revoked:(fun cred ->
        List.exists
          (Grid_gsi.Ca.Trust_store.is_revoked trust)
          cred.Grid_gsi.Credential.chain)
      ~now:(fun () -> !clock) ()
  in
  let pep = cached cache backend in
  let q = keyed_query ~credential ~job_id:"job-1" () in
  ignore (pep q);
  ignore (pep q);
  Alcotest.(check int) "live credential: cached" 1 (calls ());
  (* CRL update: a cert in the proxy's chain is revoked mid-lifetime.
     The cached permit is unexpired — TTL and chain validity both still
     hold — yet it must stop being served: a revoked credential
     bypasses the cache on read and write, exactly like an expired
     one. *)
  List.iter
    (fun c -> Grid_gsi.Ca.Trust_store.revoke_serial trust c.Grid_gsi.Cert.serial)
    credential.Grid_gsi.Credential.chain;
  clock := 1.0;
  ignore (pep q);
  ignore (pep q);
  Alcotest.(check int) "revoked credential: every call reaches the backend" 3
    (calls ());
  Alcotest.(check int) "bypasses counted" 2 (Cache.bypasses cache);
  (* The batch lane classifies per query: the revoked credential's query
     bypasses while its credential-less neighbour is served from cache. *)
  let many_calls = ref 0 in
  let batch =
    Cache.with_cache_many cache
      (Callout.Batch.make
         ~single:(fun _ ->
           incr many_calls;
           Ok ())
         ~many:(fun qs ->
           many_calls := !many_calls + Array.length qs;
           Array.map (fun _ -> Callout.permitted) qs))
  in
  let bare = keyed_query ~job_id:"job-2" () in
  let q2 = keyed_query ~credential ~job_id:"job-2" () in
  ignore (Callout.Batch.evaluate_many batch [| bare; q2 |]);
  ignore (Callout.Batch.evaluate_many batch [| bare; q2 |]);
  Alcotest.(check int)
    "batch lane: bare query cached once, revoked query re-evaluated twice" 3
    !many_calls

let test_cache_never_caches_system_error () =
  let clock = ref 0.0 in
  let backend, calls = Callout.counting (Callout.failing ~message:"backend down") in
  let cache = Cache.create ~capacity:8 ~ttl:100.0 ~now:(fun () -> !clock) () in
  let pep = cached cache backend in
  let q = keyed_query ~job_id:"job-1" () in
  let outage = function Error (Callout.System_error _) -> true | _ -> false in
  Alcotest.(check bool) "outage answered" true (outage (pep q));
  Alcotest.(check bool) "outage answered again" true (outage (pep q));
  Alcotest.(check int) "nothing was cached: backend consulted each time" 2 (calls ());
  Alcotest.(check int) "cache stayed empty" 0 (Cache.size cache);
  Alcotest.(check int) "both lookups were misses" 2 (Cache.misses cache);
  (* Within one batch, duplicates of a failing ask share the one backend
     call, and still nothing is stored. *)
  let batch = Cache.with_cache_many cache (Callout.Batch.of_callout backend) in
  let answers = Callout.Batch.evaluate_many batch [| q; q |] in
  Alcotest.(check bool) "both slots answer the outage" true (Array.for_all outage answers);
  Alcotest.(check int) "one backend call for the batch" 3 (calls ());
  Alcotest.(check int) "cache still empty" 0 (Cache.size cache)

let test_cache_lru_bound_under_churn () =
  let clock = ref 0.0 in
  let backend, calls = Callout.counting Callout.permit_all in
  let cache = Cache.create ~capacity:4 ~ttl:1000.0 ~now:(fun () -> !clock) () in
  let pep = cached cache backend in
  let q i = keyed_query ~job_id:(Printf.sprintf "job-%d" i) () in
  for i = 1 to 10 do ignore (pep (q i)) done;
  Alcotest.(check int) "bound respected" 4 (Cache.size cache);
  Alcotest.(check int) "evictions counted" 6 (Cache.evictions cache);
  (* jobs 7..10 are resident *)
  ignore (pep (q 10));
  Alcotest.(check int) "most recent entry hits" 10 (calls ());
  ignore (pep (q 1));
  Alcotest.(check int) "oldest entry was evicted" 11 (calls ());
  (* recency, not insertion order: touch 8, insert a new key, and the
     least-recently-used entry (9) goes — 8 survives. *)
  ignore (pep (q 8));
  ignore (pep (q 11));
  ignore (pep (q 8));
  Alcotest.(check int) "recently-touched entry survives churn" 12 (calls ());
  ignore (pep (q 9));
  Alcotest.(check int) "LRU victim was evicted" 13 (calls ())

let test_cache_scopes_partition_keys () =
  let clock = ref 0.0 in
  let deny, deny_calls = Callout.counting (Callout.deny_all ~reason:"owner says no") in
  let permit, permit_calls = Callout.counting Callout.permit_all in
  let cache = Cache.create ~capacity:8 ~ttl:100.0 ~now:(fun () -> !clock) () in
  let a = cached cache ~scope:"gatekeeper" deny in
  let b = cached cache ~scope:"jm" permit in
  let q = keyed_query ~job_id:"job-1" () in
  (match a q with
  | Error (Callout.Denied _) -> ()
  | _ -> Alcotest.fail "scope a should deny");
  Alcotest.(check bool) "scope b unaffected by scope a's entry" true (b q = Ok ());
  ignore (a q);
  ignore (b q);
  Alcotest.(check int) "scope a cached" 1 (deny_calls ());
  Alcotest.(check int) "scope b cached" 1 (permit_calls ())

(* --- Cache key construction ----------------------------------------------- *)

(* A key collision between two different queries is a cross-principal
   cache hit, so [Cache.query_key] must be injective over everything a
   decision can depend on: scope, epoch, store revision, requester DN,
   action, job id, jobtag, job owner, RSL clause. *)

let base_query () =
  Callout.Query.make ~requester:(dn "/O=Grid/CN=U") ~job_id:"job-1"
    (Callout.Query.Management
       { action = Grid_policy.Types.Action.Information;
         job_owner = dn "/O=Grid/CN=U";
         jobtag = Some "NFC" })

let test_cache_key_single_component_never_collides () =
  let base = base_query () in
  let key ?(scope = "authz") ?(epoch = 1) ?(revision = 7) q =
    Cache.query_key ~scope ~epoch ~revision q
  in
  (* each variant differs from base in exactly one component *)
  let variants =
    [ ("scope", key ~scope:"authz2" base);
      ("epoch", key ~epoch:2 base);
      ("revision", key ~revision:8 base);
      ("requester", key { base with Callout.requester = dn "/O=Grid/CN=V" });
      ("action", key { base with Callout.action = Grid_policy.Types.Action.Cancel });
      ("job id", key { base with Callout.job_id = Some "job-2" });
      ("job id absent", key { base with Callout.job_id = None });
      ("jobtag", key { base with Callout.jobtag = Some "ADS" });
      ("jobtag absent", key { base with Callout.jobtag = None });
      ("owner", key { base with Callout.job_owner = Some (dn "/O=Grid/CN=W") });
      ("owner absent", key { base with Callout.job_owner = None });
      ("rsl", key { base with Callout.rsl = Some (Grid_rsl.Parser.parse_clause_exn "&(executable=x)") }) ]
  in
  let base_key = key base in
  List.iter
    (fun (what, k) ->
      Alcotest.(check bool) (what ^ " differs from base") true (k <> base_key))
    variants;
  (* and all the variants are pairwise distinct *)
  let keys = base_key :: List.map snd variants in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "all keys pairwise distinct" (List.length keys)
    (List.length distinct)

let test_cache_key_adversarial_boundaries () =
  (* Hand-built DNs may contain any byte; keys compared part by part
     must keep component boundaries apart where a separator-joined
     rendering would collide. *)
  let rdn attr value = { Grid_gsi.Dn.attr; value } in
  let q dn_parts =
    { (base_query ()) with Callout.requester = dn_parts; job_owner = None }
  in
  let key q = Cache.query_key ~scope:"authz" ~epoch:1 q in
  let pairs =
    [ (* value/attr boundary shifts *)
      ("attr/value shift", q [ rdn "ab" "c" ], q [ rdn "a" "bc" ]);
      (* one rdn vs two, same concatenation *)
      ("rdn split", q [ rdn "a" "bc=d" ], q [ rdn "a" "bc"; rdn "" "d" ]);
      (* '/' inside a value vs a structural '/' *)
      ("slash in value", q [ rdn "O" "G/OU=u1" ], q [ rdn "O" "G"; rdn "OU" "u1" ]);
      (* digits bleeding into a length prefix *)
      ("digit bleed", q [ rdn "a" "1" ], q [ rdn "a1" "" ]);
      (* empty components still occupy a position *)
      ("empty components", q [ rdn "" ""; rdn "" "" ], q [ rdn "" "" ]) ]
  in
  List.iter
    (fun (what, qa, qb) ->
      Alcotest.(check bool) what true (key qa <> key qb))
    pairs;
  (* requester/owner fields must not be confusable either *)
  let a = { (base_query ()) with Callout.requester = dn "/O=G"; job_owner = Some (dn "/O=H") } in
  let b = { (base_query ()) with Callout.requester = dn "/O=H"; job_owner = Some (dn "/O=G") } in
  Alcotest.(check bool) "requester/owner not interchangeable" true
    (Cache.query_key ~scope:"authz" ~epoch:1 a <> Cache.query_key ~scope:"authz" ~epoch:1 b)

(* Random key tuples. Pools are tiny so genuine equality happens often
   and both directions of each iff below get exercised. *)
let gen_dn =
  QCheck.Gen.(
    let rdn =
      let* attr = oneofl [ ""; "O"; "CN"; "a"; "a1"; "ab" ] in
      let* value = oneofl [ ""; "G"; "1"; "b"; "bc"; "G/OU=u1"; "x\x00y"; "x\x01y" ] in
      return { Grid_gsi.Dn.attr; value }
    in
    list_size (int_range 0 3) rdn)

let gen_keyed =
  QCheck.Gen.(
    let* scope = oneofl [ "authz"; "jm" ] in
    let* epoch = int_range 0 2 in
    let* revision = opt (int_range 0 2) in
    let* requester = gen_dn in
    let* action =
      oneofl Grid_policy.Types.Action.[ Start; Cancel; Information; Signal ]
    in
    let* job_id = opt (oneofl [ "job-1"; "job-2"; "" ]) in
    let* jobtag = opt (oneofl [ "NFC"; "ADS"; "" ]) in
    let* job_owner = opt gen_dn in
    let* rsl =
      opt (map Grid_rsl.Parser.parse_clause_exn (oneofl [ "&(executable=x)"; "&(count=2)" ]))
    in
    return (scope, epoch, revision, requester, action, job_id, jobtag, job_owner, rsl))

let keyed_tuple_query (_, _, _, requester, action, job_id, jobtag, job_owner, rsl) =
  { Callout.requester; requester_credential = None; job_owner; action; job_id; rsl; jobtag }

let key ((scope, epoch, revision, _, _, _, _, _, _) as k) =
  Cache.query_key ~scope ~epoch ?revision (keyed_tuple_query k)

(* Injectivity as a property: two random key tuples collide iff every
   component is equal. *)
let qcheck_cache_key_injective =
  QCheck.Test.make ~name:"query_key collides iff all components equal" ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_keyed gen_keyed))
    (fun (a, b) -> key a = key b = (a = b))

(* The table must agree with the key: asked [a] then [b], the cache
   serves [b] from [a]'s entry iff their keys are equal. A hash that
   disagreed with key equality would miss here where the keys match.
   The cache either samples a revision or does not, so both queries of
   a pair carry one or neither. *)
let qcheck_cache_serves_iff_keys_equal =
  QCheck.Test.make ~name:"second ask served from the first's entry iff keys equal"
    ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_keyed gen_keyed))
    (fun (((_, _, rev_a, _, _, _, _, _, _) as a), ((_, _, rev_b, _, _, _, _, _, _) as b)) ->
      QCheck.assume (Option.is_some rev_a = Option.is_some rev_b);
      let epoch = ref 0 and revision = ref None in
      let backend, calls = Callout.counting Callout.permit_all in
      let cache =
        Cache.create ~epoch:(fun () -> !epoch)
          ?revision:(Option.map (fun _ () -> Option.get !revision) rev_a)
          ~now:(fun () -> 0.0) ()
      in
      let ask ((scope, e, r, _, _, _, _, _, _) as k) =
        epoch := e;
        revision := r;
        ignore (cached cache ~scope backend (keyed_tuple_query k))
      in
      ask a;
      ask b;
      calls () = 1 = (key a = key b))

let pinned test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED; 421 |]) test

let test_cache_revision_keys_without_flushing () =
  (* A revision bump (a tuple write under the ReBAC PEP) must stop old
     entries being served — the key changes — without flushing them:
     rolling back to the same revision probes the original entry again,
     and no invalidations are counted. An epoch bump still flushes. *)
  let clock = ref 0.0 in
  let epoch = ref 1 in
  let revision = ref 10 in
  let backend, calls = Callout.counting Callout.permit_all in
  let cache =
    Cache.create ~capacity:8 ~ttl:100.0 ~epoch:(fun () -> !epoch)
      ~revision:(fun () -> !revision) ~now:(fun () -> !clock) ()
  in
  let pep = cached cache backend in
  let q = keyed_query ~job_id:"job-1" () in
  ignore (pep q);
  ignore (pep q);
  Alcotest.(check int) "cached within a revision" 1 (calls ());
  incr revision;
  ignore (pep q);
  Alcotest.(check int) "new revision misses" 2 (calls ());
  Alcotest.(check int) "no flush on revision change" 0 (Cache.invalidations cache);
  Alcotest.(check int) "old entry still resident" 2 (Cache.size cache);
  revision := 10;
  ignore (pep q);
  Alcotest.(check int) "same-revision entry probed again" 2 (calls ());
  incr epoch;
  ignore (pep q);
  Alcotest.(check bool) "epoch change flushes" true (Cache.invalidations cache > 0)

let () =
  Alcotest.run "grid_callout"
    [ ( "combinators",
        [ Alcotest.test_case "all conjunction" `Quick test_all_conjunction;
          Alcotest.test_case "first error wins" `Quick test_all_first_error_wins;
          Alcotest.test_case "counting" `Quick test_counting ] );
      ( "resilience",
        [ Alcotest.test_case "breaker half-open recovery" `Quick
            test_breaker_opens_and_half_open_recovery;
          Alcotest.test_case "breaker failed probe reopens" `Quick
            test_breaker_failed_probe_reopens;
          Alcotest.test_case "flaky deterministic" `Quick test_flaky_deterministic ] );
      ( "registry+config",
        [ Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
          Alcotest.test_case "config parse" `Quick test_config_parse;
          Alcotest.test_case "config errors" `Quick test_config_parse_errors;
          Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
          Alcotest.test_case "resolution" `Quick test_config_resolution ] );
      ( "cache",
        [ Alcotest.test_case "hits + epoch invalidation" `Quick
            test_cache_hits_and_epoch_invalidation;
          Alcotest.test_case "denials cached" `Quick test_cache_caches_denials;
          Alcotest.test_case "ttl expiry" `Quick test_cache_ttl_expiry;
          Alcotest.test_case "expired credential bypasses" `Quick
            test_cache_expired_credential_bypasses;
          Alcotest.test_case "revoked credential bypasses" `Quick
            test_cache_revoked_credential_bypasses;
          Alcotest.test_case "system_error never cached" `Quick
            test_cache_never_caches_system_error;
          Alcotest.test_case "lru bound under churn" `Quick
            test_cache_lru_bound_under_churn;
          Alcotest.test_case "scopes partition keys" `Quick
            test_cache_scopes_partition_keys ] );
      ( "cache-keys",
        [ Alcotest.test_case "one differing component never collides" `Quick
            test_cache_key_single_component_never_collides;
          Alcotest.test_case "adversarial component boundaries" `Quick
            test_cache_key_adversarial_boundaries;
          pinned qcheck_cache_key_injective;
          pinned qcheck_cache_serves_iff_keys_equal;
          Alcotest.test_case "revision keys without flushing" `Quick
            test_cache_revision_keys_without_flushing ] );
      ( "file-pep",
        [ Alcotest.test_case "decisions" `Quick test_file_pep_decisions;
          Alcotest.test_case "management" `Quick test_file_pep_management;
          Alcotest.test_case "unparseable fails closed" `Quick
            test_file_pep_of_texts_bad_policy_fails_closed;
          Alcotest.test_case "invalid fails closed" `Quick
            test_file_pep_of_texts_invalid_policy_fails_closed;
          Alcotest.test_case "of_texts good" `Quick test_file_pep_of_texts_good ] ) ]
