(* Batch decision pipeline equivalence suite.

   The contract of [Callout.Batch] is that the many lane is an
   *optimization*, never a semantic fork: for every backend,
   [evaluate_many qs] must equal [Array.map single qs] element-wise —
   the decision AND the reason (the structural compare covers the full
   error payload) — and the answers must come back in request order.

   The PEPs and the cache write only their many lane, and their single
   lane is a batch of one, so "many = map single" alone would compare
   one implementation with itself. The suite therefore also holds the
   flat-file compiled backend and the cached backend, cold and warm,
   to the uncompiled [File_pep.reference] evaluator, and pins
   [check q = (evaluate_many [|q|]).(0)] for every backend.

   The properties run for every backend that ships a native many lane
   (flat-file compiled, compiled behind the decision cache, ReBAC), the
   derived [Batch.of_callout] fallback and the gatekeeper-scoped cache
   over it, under three pinned seed sets so a failure reproduces
   byte-for-byte. Generated batches mix start and management intents,
   owners, jobtags, duplicates, and missing/live/expired credentials;
   the cached backends are exercised cold (misses) and warm (hits), and
   on one shared cache under two scopes. A deterministic regression
   case pins request-order preservation with asymmetric outcomes and
   duplicated slots. *)

module Callout = Grid_callout.Callout
module File_pep = Grid_callout.File_pep
module Cache = Grid_callout.Cache
module Pep = Grid_rebac.Pep
module Types = Grid_policy.Types

let dn = Grid_gsi.Dn.parse

(* --- Seed / count overrides (same contract as test_rebac) -------------- *)

let env_int name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> Some n
    | None -> Printf.ksprintf failwith "%s must be an integer, got %S" name s)

let override_seed = env_int "QCHECK_SEED"
let override_count = env_int "QCHECK_COUNT"
let count ~default = match override_count with Some n -> n | None -> default

let pinned_with seeds test =
  let seeds = match override_seed with Some s -> [| s |] | None -> seeds in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make seeds) test

(* The pinned-seed matrix: the whole suite replays under each. *)
let seed_matrix = [ ("1", [| 1; 9973 |]); ("7", [| 7; 1103 |]); ("42", [| 42; 2741 |]) ]

(* --- The world ---------------------------------------------------------- *)

(* The fusion policy sources (resource owner + VO): two sources, so the
   conjunctive source-major batch path is on the hook, with the
   developer count cap supplying real denials. *)
let sources = Core.Fusion.policy_sources (Core.Fusion.build_vo ())
let compiled_pep = File_pep.Compiled.create sources
let compiled = File_pep.Compiled.batch compiled_pep
let rebac = Pep.batch (Pep.create sources)
let reference = File_pep.reference sources
let fallback = Callout.Batch.of_callout reference

(* All cache clocks sit at [now]; the 50-second identities below are
   long dead by then, the 1000-second ones comfortably live. *)
let now = 100.0
let ca = Grid_gsi.Ca.create ~now:0.0 "/O=Grid/CN=Batch CA"

let credential ~lifetime dn_string =
  Grid_gsi.Credential.of_identity
    (Grid_gsi.Identity.create ~ca ~now:0.0 ~lifetime dn_string)
    ~challenge:"c"

let bo = Core.Fusion.bo_liu
let kate = Core.Fusion.kate_keahey
let admin = Core.Fusion.admin
let stranger = "/O=Elsewhere/CN=stranger"
let subjects = [ bo; kate; admin; stranger ]
let credentials = List.map (fun s -> (s, (credential ~lifetime:1000.0 s, credential ~lifetime:50.0 s))) subjects
let live_credential s = fst (List.assoc s credentials)
let expired_credential s = snd (List.assoc s credentials)

let clauses =
  Array.map Grid_rsl.Parser.parse_clause_exn
    [| "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)";
       "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=6)";
       "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)";
       "&(executable=test1)(directory=/sandbox/test)" |]

(* --- Generators --------------------------------------------------------- *)

let gen_query : Callout.query QCheck.Gen.t =
  QCheck.Gen.(
    let* who = oneofl subjects in
    let* credential =
      frequency
        [ (3, return None);
          (2, return (Some (live_credential who)));
          (2, return (Some (expired_credential who))) ]
    in
    let* is_start = frequency [ (1, return true); (2, return false) ] in
    if is_start then
      let* i = int_range 0 (Array.length clauses - 1) in
      return
        (Callout.Query.make ~requester:(dn who) ?credential
           (Callout.Query.Start clauses.(i)))
    else
      let* action = oneofl [ Types.Action.Information; Cancel; Signal ] in
      let* owner = oneofl [ bo; kate ] in
      let* jobtag = oneofl [ None; Some "ADS"; Some "NFC" ] in
      let* job = int_range 0 3 in
      return
        (Callout.Query.make ~requester:(dn who) ?credential
           ~job_id:(Printf.sprintf "job-%d" job)
           (Callout.Query.Management { action; job_owner = dn owner; jobtag })))

let credential_live (c : Grid_gsi.Credential.t) =
  c.chain <> [] && List.for_all (fun cert -> Grid_gsi.Cert.valid_at cert ~now) c.chain

let query_to_string (q : Callout.query) =
  Printf.sprintf "{%s %s%s%s%s%s}"
    (Grid_gsi.Dn.to_string q.Callout.requester)
    (Types.Action.to_string q.Callout.action)
    (match q.Callout.job_owner with
    | Some o -> " owner=" ^ Grid_gsi.Dn.to_string o
    | None -> "")
    (match q.Callout.jobtag with Some t -> " tag=" ^ t | None -> "")
    (match q.Callout.rsl with Some _ -> " +rsl" | None -> "")
    (match q.Callout.requester_credential with
    | None -> ""
    | Some c -> if credential_live c then " cred:live" else " cred:EXPIRED")

let arb_batch =
  QCheck.make
    ~print:(fun qs -> String.concat "; " (List.map query_to_string qs))
    QCheck.Gen.(list_size (int_range 0 40) gen_query)

(* --- The equivalence property ------------------------------------------- *)

(* Two passes: against a stateful backend the first is all cold misses,
   the second all warm hits — both must still match the single lane.
   The two lanes get *separate* cache instances so each lane's state
   evolves exactly as its own call sequence dictates. *)
let lanes_agree (b_single, b_many) qs =
  let single = Callout.Batch.check b_single in
  let ok = ref true in
  for _pass = 1 to 2 do
    let expect = Array.map single qs in
    let got = Callout.Batch.evaluate_many b_many qs in
    if expect <> got then ok := false
  done;
  !ok

let fresh_cache () =
  Cache.create ~capacity:512 ~ttl:1e6
    ~epoch:(fun () -> File_pep.Compiled.epoch compiled_pep)
    ~now:(fun () -> now) ()

let cached () = Cache.with_cache_many (fresh_cache ()) compiled

(* How the gatekeeper PEP, a plain callout, reaches the cache. *)
let gatekeeper_cached () = Cache.with_cache_many (fresh_cache ()) ~scope:"gatekeeper" fallback

let backends =
  [ ("flat-file compiled", fun () -> (compiled, compiled));
    ("derived fallback", fun () -> (fallback, fallback));
    ("rebac", fun () -> (rebac, rebac));
    ("compiled+cache", fun () -> (cached (), cached ()));
    ("gatekeeper cache", fun () -> (gatekeeper_cached (), gatekeeper_cached ())) ]

let equivalence (name, make_pair) =
  QCheck.Test.make
    ~name:(name ^ ": evaluate_many = map single (decision and reason)")
    ~count:(count ~default:150) arb_batch
    (fun qs -> lanes_agree (make_pair ()) (Array.of_list qs))

(* The single lane is the many lane asked a batch of one. Two passes,
   so the cached backends answer cold and then warm; each lane has its
   own cache instance, fed the same sequence. *)
let batch_of_one (name, make_pair) =
  QCheck.Test.make ~name:(name ^ ": check = evaluate_many of one")
    ~count:(count ~default:150) arb_batch
    (fun qs ->
      let single, many = make_pair () in
      let agree q =
        Callout.Batch.check single q = (Callout.Batch.evaluate_many many [| q |]).(0)
      in
      List.for_all agree qs && List.for_all agree qs)

(* The compiled index and the cache in front of it, against the
   uncompiled reference evaluator: decision and reason, through both
   lanes, cold then warm. *)
let against_reference (name, make) =
  QCheck.Test.make ~name:(name ^ ": = File_pep.reference (decision and reason)")
    ~count:(count ~default:150) arb_batch
    (fun qs ->
      let qs = Array.of_list qs in
      let truth = Array.map reference qs in
      let b = make () in
      let ok = ref true in
      for _pass = 1 to 2 do
        if Callout.Batch.evaluate_many b qs <> truth then ok := false;
        if Array.map (Callout.Batch.check b) qs <> truth then ok := false
      done;
      !ok)

let reference_backends =
  [ ("flat-file compiled", fun () -> compiled); ("compiled+cache", cached) ]

(* One shared cache serving two scopes: neither scope's batch lane may
   leak the other's entries, so both must keep matching the uncached
   truth while both scopes run hot on the same store. *)
let mixed_scopes =
  QCheck.Test.make ~name:"one cache, two scopes: both lanes match the uncached truth"
    ~count:(count ~default:100) arb_batch
    (fun qs ->
      let qs = Array.of_list qs in
      let cache = fresh_cache () in
      let authz = Cache.with_cache_many cache ~scope:"authz" compiled in
      let gatekeeper = Cache.with_cache_many cache ~scope:"gatekeeper" compiled in
      let truth = Array.map (Callout.Batch.check compiled) qs in
      let ok = ref true in
      for _pass = 1 to 2 do
        if Callout.Batch.evaluate_many authz qs <> truth then ok := false;
        if Callout.Batch.evaluate_many gatekeeper qs <> truth then ok := false
      done;
      !ok)

(* --- Order preservation (deterministic regression) ---------------------- *)

(* Asymmetric outcomes in fixed slots, with slot 3 duplicating slot 0:
   any reordering, mis-scatter, or duplicate-collapse bug flips at
   least one index. *)
let test_order_preserved () =
  let q_kate =
    Callout.Query.make ~requester:(dn kate) (Callout.Query.Start clauses.(2))
  in
  let qs =
    [| q_kate;
       Callout.Query.make ~requester:(dn stranger) (Callout.Query.Start clauses.(2));
       Callout.Query.make ~requester:(dn bo) (Callout.Query.Start clauses.(1));
       q_kate;
       Callout.Query.make ~requester:(dn bo) (Callout.Query.Start clauses.(0)) |]
  in
  let expect_permit = [| true; false; false; true; true |] in
  List.iter
    (fun (name, make_pair) ->
      let _, b = make_pair () in
      let single = Callout.Batch.check b in
      let expect = Array.map single qs in
      let got = Callout.Batch.evaluate_many b qs in
      Array.iteri
        (fun i d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: slot %d permitted?" name i)
            expect_permit.(i)
            (d = Ok ());
          Alcotest.(check bool)
            (Printf.sprintf "%s: slot %d equals single lane" name i)
            true
            (d = expect.(i)))
        got)
    backends

let () =
  Alcotest.run "grid_batch"
    (( "order",
       [ Alcotest.test_case "request order preserved" `Quick test_order_preserved ] )
    :: List.map
         (fun (label, seeds) ->
           ( "equivalence-seed-" ^ label,
             List.map (fun b -> pinned_with seeds (equivalence b)) backends
             @ [ pinned_with seeds mixed_scopes ]
             @ List.map (fun b -> pinned_with seeds (batch_of_one b)) backends
             @ List.map (fun b -> pinned_with seeds (against_reference b)) reference_backends
           ))
         seed_matrix)
