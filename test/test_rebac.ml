(* Differential tests for the relationship-based (Zanzibar-style)
   backend: over random policies and requests, graph expansion through
   the compiled tuple trie must agree with the compiled RSL engine on
   the decision AND the reason — same denial constructor, same violated
   constraint, same denying source. The headline property runs under
   three distinct pinned seeds so a failure reproduces byte-for-byte;
   [QCHECK_SEED] / [QCHECK_COUNT] override seed and volume for
   exploratory CI runs.

   Alongside the differential core: zookie semantics (snapshot-pinned
   decisions are immune to later writes; future tokens and
   expired-epoch snapshots are errors, not denials), expansion
   termination on cyclic graphs, depth-budget behaviour, store MVCC,
   and an end-to-end soak campaign on the ReBAC PEP judged by the
   safety monitor's oracle. *)

open Grid_policy
module Rebac = Grid_rebac
module Tuple = Rebac.Tuple
module Zookie = Rebac.Zookie
module Store = Rebac.Store
module RCompile = Rebac.Compile
module Pep = Rebac.Pep

let dn = Grid_gsi.Dn.parse

let start ~who ~rsl =
  Types.start_request ~subject:(dn who) ~job:(Grid_rsl.Parser.parse_clause_exn rsl)

let manage ~who ~action ~owner ~tag =
  Types.management_request ~subject:(dn who) ~action ~jobowner:(dn owner) ~jobtag:tag

(* --- Seed / count overrides ------------------------------------------------ *)

(* Differential volume and seeding are env-overridable so CI can run the
   pinned matrix *and* an exploratory lap with a random seed; a bad
   override is a loud failure, not a silent fallback to defaults. *)
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

(* Every QCheck test runs under a pinned seed (or the QCHECK_SEED
   override, applied uniformly so a reported failure names its seed). *)
let pinned_with seeds test =
  let seeds = match override_seed with Some s -> [| s |] | None -> seeds in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make seeds) test

let pinned test = pinned_with [| 0x5EED; 421 |] test

(* The pinned-seed matrix for the headline differential property. *)
let seed_matrix = [ ("5eed", [| 0x5EED; 421 |]); ("7", [| 7; 1103 |]); ("42", [| 42; 2741 |]) ]

(* --- Generators ------------------------------------------------------------ *)

(* Same vocabulary as test_policy_compile: subject prefixes of depth
   0..3 so the trie gets root-only, interior and leaf placements, and
   values that collide often enough for permits to happen. *)

let pattern_pool =
  [ "/O=G"; "/O=G/OU=u1"; "/O=G/OU=u1/CN=a"; "/O=G/OU=u1/CN=b"; "/O=G/OU=u2/CN=c";
    "/O=H/CN=d" ]

let subject_pool = [ "/O=G/OU=u1/CN=a"; "/O=G/OU=u1/CN=b"; "/O=G/OU=u2/CN=c"; "/O=H/CN=d"; "/O=G" ]

let gen_policy : Types.t QCheck.Gen.t =
  QCheck.Gen.(
    let subject_pattern =
      frequency
        [ (8, map dn (oneofl pattern_pool));
          (* the empty pattern: prefix of every subject *)
          (1, return []) ]
    in
    let attr =
      oneofl [ "executable"; "count"; "jobtag"; "queue"; "jobowner"; "action"; "memory" ]
    in
    let cvalue =
      frequency
        [ ( 10,
            map
              (fun s -> Types.Str s)
              (oneofl
                 [ "x"; "y"; "2"; "5"; "start"; "cancel"; "information";
                   "/O=G/OU=u1/CN=a"; "nan"; "notanumber" ]) );
          (2, return Types.Self);
          (2, return Types.Null) ]
    in
    let constr =
      let* attribute = attr in
      let* op = oneofl Grid_rsl.Ast.[ Eq; Neq; Lt; Le; Gt; Ge ] in
      let* values = list_size (int_range 1 3) cvalue in
      return { Types.attribute; op; values }
    in
    let clause = list_size (int_range 1 4) constr in
    let statement =
      let* kind = frequency [ (3, return Types.Grant); (1, return Types.Requirement) ] in
      let* subject_pattern = subject_pattern in
      let* clauses = list_size (int_range 1 3) clause in
      return { Types.kind; subject_pattern; clauses }
    in
    list_size (int_range 0 8) statement)

let gen_request : Types.request QCheck.Gen.t =
  QCheck.Gen.(
    let* who = oneofl subject_pool in
    let* is_start = bool in
    if is_start then
      let* exe = oneofl [ "x"; "y"; "z" ] in
      let* count =
        oneofl
          [ ""; "(count=2)"; "(count=5)"; "(count=bad)"; "(count=2)(count=2)";
            "(count=2)(count=5)" ]
      in
      let* tag = oneofl [ ""; "(jobtag=x)"; "(jobtag=y)" ] in
      let* queue = oneofl [ ""; "(queue=x)"; "(queue=x)(queue=y)" ] in
      let* owner_binding = oneofl [ ""; {|(jobowner="/O=G/OU=u1/CN=a")|} ] in
      return
        (start ~who
           ~rsl:(Printf.sprintf "&(executable=%s)%s%s%s%s" exe count tag queue owner_binding))
    else
      let* owner = oneofl subject_pool in
      let* action = oneofl Types.Action.[ Cancel; Information; Signal ] in
      let* tag = oneofl [ None; Some "x"; Some "y" ] in
      return (manage ~who ~action ~owner ~tag))

let print_triple (p1, p2, r) =
  Printf.sprintf "OWNER:\n%s\nVO:\n%s\nREQUEST: %s" (Types.to_string p1)
    (Types.to_string p2)
    (Fmt.to_to_string Types.pp_request r)

let arb_triple =
  QCheck.make QCheck.Gen.(triple gen_policy gen_policy gen_request) ~print:print_triple

(* The compiled flat-file combination, one request as a batch of one. *)
let compiled_decide compiled request =
  (Combine.evaluate_compiled_many compiled [| request |]).(0)

let two_sources p1 p2 = [ Combine.source ~name:"owner" p1; Combine.source ~name:"vo" p2 ]

(* --- Differential properties ----------------------------------------------- *)

(* The headline property, instantiated once per pinned seed: expansion
   over the compiled tuple graph and the compiled RSL index agree on
   decision and reason over two conjunctive sources. *)
let rebac_agrees_with_compiled ~seed_name =
  QCheck.Test.make
    ~name:(Printf.sprintf "ReBAC decide = compiled RSL (seed %s)" seed_name)
    ~count:(count ~default:2000) arb_triple
    (fun (p1, p2, request) ->
      let sources = two_sources p1 p2 in
      let plan = RCompile.of_sources sources in
      let store = RCompile.load plan in
      RCompile.decide plan store request
      = Ok (compiled_decide (Combine.compile_sources sources) request))

let qcheck_single_source_agrees_with_eval =
  (* Down to one source, against the reference evaluator itself. *)
  QCheck.Test.make ~name:"single-source ReBAC = Eval.evaluate" ~count:(count ~default:1000)
    (QCheck.make
       QCheck.Gen.(pair gen_policy gen_request)
       ~print:(fun (p, r) ->
         Printf.sprintf "POLICY:\n%s\nREQUEST: %s" (Types.to_string p)
           (Fmt.to_to_string Types.pp_request r)))
    (fun (policy, request) ->
      let plan = RCompile.of_policy policy in
      let store = RCompile.load plan in
      let expected =
        match Eval.evaluate policy request with
        | Eval.Permit -> Combine.Permit
        | Eval.Deny reason -> Combine.Deny { source = "policy"; reason }
      in
      RCompile.decide plan store request = Ok expected)

let qcheck_plan_is_reusable =
  (* One compiled plan + store answers many requests: contextual tuples
     never leak between checks, and reads leave no state behind. *)
  QCheck.Test.make ~name:"compiled plan is reusable across requests" ~count:(count ~default:300)
    (QCheck.make
       QCheck.Gen.(triple gen_policy gen_policy (list_size (int_range 1 5) gen_request))
       ~print:(fun (p1, p2, _) ->
         Printf.sprintf "OWNER:\n%s\nVO:\n%s" (Types.to_string p1) (Types.to_string p2)))
    (fun (p1, p2, requests) ->
      let sources = two_sources p1 p2 in
      let plan = RCompile.of_sources sources in
      let store = RCompile.load plan in
      let compiled = Combine.compile_sources sources in
      let revision_before = Store.revision store in
      List.for_all
        (fun r ->
          RCompile.decide plan store r = Ok (compiled_decide compiled r)
          && RCompile.decide plan store r = RCompile.decide plan store r)
        requests
      && Store.revision store = revision_before)

let query_of_request (r : Types.request) : Grid_callout.Callout.query =
  { Grid_callout.Callout.requester = r.Types.subject;
    requester_credential = None;
    job_owner = r.Types.jobowner;
    action = r.Types.action;
    job_id = (if r.Types.action = Types.Action.Start then Some "job-1" else None);
    rsl = r.Types.job;
    jobtag = r.Types.jobtag }

let qcheck_pep_agrees_with_file_pep =
  (* End-to-end through the callout API: the ReBAC PEP and the compiled
     flat-file PEP answer identically, denial messages included. *)
  QCheck.Test.make ~name:"Pep.of_sources = File_pep.of_sources" ~count:(count ~default:500)
    arb_triple
    (fun (p1, p2, request) ->
      let sources = two_sources p1 p2 in
      let rebac = Pep.of_sources sources in
      let flat = Grid_callout.File_pep.of_sources sources in
      let q = query_of_request request in
      rebac q = flat q)

(* --- Zookie semantics ------------------------------------------------------ *)

let qcheck_snapshot_pinned_decisions_are_stable =
  (* Monotonicity: a decision served against [Snapshot z] never changes,
     no matter what is written after [z] — even writes engineered to
     flip applicability (grafting the requester into every pattern
     node). *)
  QCheck.Test.make ~name:"snapshot-pinned decisions ignore later writes"
    ~count:(count ~default:300) arb_triple
    (fun (p1, p2, request) ->
      let sources = two_sources p1 p2 in
      let plan = RCompile.of_sources sources in
      let store = RCompile.load plan in
      let token = Store.head store in
      let pin = Store.Snapshot token in
      let before = RCompile.decide ~consistency:pin plan store request in
      let reference = Ok (compiled_decide (Combine.compile_sources sources) request) in
      (* make the requester a stored member of every pattern node: at
         head, every statement now applies to them *)
      let user = Tuple.User (Grid_gsi.Dn.to_string request.Types.subject) in
      List.iter
        (fun pattern ->
          ignore
            (Store.write store
               (Tuple.make (RCompile.group_obj (dn pattern)) ~relation:RCompile.member_rel user)))
        pattern_pool;
      let after = RCompile.decide ~consistency:pin plan store request in
      before = reference && after = before
      (* and [At_least] with an already-satisfied token answers at head *)
      && RCompile.decide ~consistency:(Store.At_least token) plan store request
         = RCompile.decide plan store request)

let test_future_token_is_an_error () =
  let plan = RCompile.of_policy (Parse.parse "/O=G: &(action = cancel)") in
  let store = RCompile.load plan in
  let future = Zookie.make ~epoch:(Store.epoch store) ~revision:(Store.revision store + 5) in
  let r = manage ~who:"/O=G/CN=a" ~action:Types.Action.Cancel ~owner:"/O=G/CN=a" ~tag:None in
  (match RCompile.decide ~consistency:(Store.At_least future) plan store r with
  | Error (Store.Future_token _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Future_token");
  match RCompile.decide ~consistency:(Store.Snapshot future) plan store r with
  | Error (Store.Future_token _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Future_token for future snapshot"

let test_zookie_ordering () =
  let z (epoch, revision) = Zookie.make ~epoch ~revision in
  Alcotest.(check bool) "revision orders within an epoch" true
    (Zookie.newer_than (z (3, 5)) (z (3, 4)));
  Alcotest.(check bool) "epoch dominates revision" true
    (Zookie.newer_than (z (4, 0)) (z (3, 999)));
  Alcotest.(check bool) "equal tokens are not newer" false
    (Zookie.newer_than (z (3, 5)) (z (3, 5)));
  Alcotest.(check bool) "equal" true (Zookie.equal (z (3, 5)) (z (3, 5)))

let test_zookie_round_trip () =
  let z = Zookie.make ~epoch:17 ~revision:4242 in
  (match Zookie.of_string (Zookie.to_string z) with
  | Ok z' -> Alcotest.(check bool) "round trip" true (Zookie.equal z z')
  | Error e -> Alcotest.fail ("round trip failed: " ^ e));
  (* corrupting any component must be detected by the digest *)
  let s = Zookie.to_string z in
  let corrupt = "zk:18:" ^ String.sub s 6 (String.length s - 6) in
  (match Zookie.of_string corrupt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted token accepted");
  match Zookie.of_string "not-a-token" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* --- Tuple model ----------------------------------------------------------- *)

let test_tuple_round_trip () =
  let round_trip t =
    match Tuple.of_string (Tuple.to_string t) with
    | Ok t' -> Alcotest.(check bool) (Tuple.to_string t) true (Tuple.equal t t')
    | Error e -> Alcotest.fail (Tuple.to_string t ^ ": " ^ e)
  in
  let g = Tuple.obj ~namespace:"group" ~id:"physics" in
  round_trip (Tuple.make g ~relation:"member" (Tuple.User "/O=G/OU=u1/CN=a"));
  (* DN-ish user strings may contain '@' and ':' *)
  round_trip (Tuple.make g ~relation:"member" (Tuple.User "/O=G/CN=a@b:c"));
  round_trip
    (Tuple.make
       (Tuple.obj ~namespace:"jobtag" ~id:"jt:42")
       ~relation:"manager"
       (Tuple.Userset (Tuple.userset g "member")))

let test_tuple_rejects_malformed () =
  let rejects s =
    match Tuple.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" s)
  in
  List.iter rejects
    [ ""; "nonsense"; "group:g#member"; "group:g@user:a"; "#member@user:a";
      "group:g#member@"; "group:g##member@user:a" ];
  Alcotest.check_raises "namespace with ':'"
    (Invalid_argument "Tuple.obj: namespace must not contain ':' or '#'") (fun () ->
      ignore (Tuple.obj ~namespace:"a:b" ~id:"x"))

(* --- Store MVCC ------------------------------------------------------------ *)

let mcheck ?consistency store ~obj ~relation ~user expected msg =
  match Store.check ?consistency store ~obj ~relation ~user with
  | Ok b -> Alcotest.(check bool) msg expected b
  | Error e -> Alcotest.fail (msg ^ ": " ^ Store.check_error_to_string e)

let test_store_mvcc () =
  let store = Store.create ~epoch:1 () in
  let g = Tuple.obj ~namespace:"g" ~id:"eng" in
  let alice = Tuple.make g ~relation:"member" (Tuple.User "alice") in
  let z0 = Store.head store in
  let z1 = Store.write store alice in
  Alcotest.(check bool) "write advances the head" true (Zookie.newer_than z1 z0);
  mcheck store ~obj:g ~relation:"member" ~user:"alice" true "visible at head";
  mcheck ~consistency:(Store.Snapshot z0) store ~obj:g ~relation:"member" ~user:"alice" false
    "invisible before the write";
  (* duplicate writes still advance the revision (zookies are handed
     out per write, not per distinct tuple) *)
  let z2 = Store.write store alice in
  Alcotest.(check bool) "duplicate write advances the head" true (Zookie.newer_than z2 z1);
  let z3 = Store.delete store alice in
  Alcotest.(check bool) "delete advances the head" true (Zookie.newer_than z3 z2);
  mcheck store ~obj:g ~relation:"member" ~user:"alice" false "gone at head";
  mcheck ~consistency:(Store.Snapshot z1) store ~obj:g ~relation:"member" ~user:"alice" true
    "still visible at the pre-delete snapshot";
  Alcotest.(check int) "no live tuples" 0 (Store.tuple_count store)

let test_store_epoch_is_monotonic () =
  let store = Store.create ~epoch:3 () in
  Store.set_epoch store 5;
  Alcotest.(check int) "epoch raised" 5 (Store.epoch store);
  Alcotest.check_raises "epoch cannot decrease"
    (Invalid_argument "Store.set_epoch: epoch must not decrease") (fun () ->
      Store.set_epoch store 4)

(* --- Expansion: cycles and depth ------------------------------------------- *)

let node i = Tuple.obj ~namespace:"g" ~id:(Printf.sprintf "n%d" i)

let member_edge i j =
  Tuple.make (node i) ~relation:"member" (Tuple.Userset (Tuple.userset (node j) "member"))

let test_cycle_reaches_members () =
  (* A ring: n0 -> n1 -> ... -> n5 -> n0, with the only concrete member
     attached to n3. Every node on the ring must reach it, and the
     cyclic expansion must terminate. *)
  let store = Store.create () in
  let n = 6 in
  for i = 0 to n - 1 do
    ignore (Store.write store (member_edge i ((i + 1) mod n)))
  done;
  ignore (Store.write store (Tuple.make (node 3) ~relation:"member" (Tuple.User "alice")));
  for i = 0 to n - 1 do
    mcheck store ~obj:(node i) ~relation:"member" ~user:"alice"
      true
      (Printf.sprintf "n%d reaches alice through the ring" i)
  done;
  mcheck store ~obj:(node 0) ~relation:"member" ~user:"nobody" false
    "non-members are refused, not looped on"

let qcheck_random_cyclic_graphs_terminate =
  (* Arbitrary dense digraphs (self-loops, multi-edges, cycles): every
     check terminates with a boolean or a depth error — never hangs,
     never raises. *)
  QCheck.Test.make ~name:"expansion terminates on arbitrary cyclic graphs"
    ~count:(count ~default:300)
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 2 10 in
         let* edges = list_size (int_range 0 30) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
         let* member_at = int_bound (n - 1) in
         let* query_from = int_bound (n - 1) in
         let* budget = oneofl [ 2; 5; Store.default_budget ] in
         return (n, edges, member_at, query_from, budget))
       ~print:(fun (n, edges, m, q, b) ->
         Printf.sprintf "n=%d edges=%s member_at=%d from=%d budget=%d" n
           (String.concat ","
              (List.map (fun (i, j) -> Printf.sprintf "%d->%d" i j) edges))
           m q b))
    (fun (_n, edges, member_at, query_from, budget) ->
      let store = Store.create () in
      List.iter (fun (i, j) -> ignore (Store.write store (member_edge i j))) edges;
      ignore
        (Store.write store (Tuple.make (node member_at) ~relation:"member" (Tuple.User "alice")));
      match
        Store.check ~budget store ~obj:(node query_from) ~relation:"member" ~user:"alice"
      with
      | Ok _ | Error (Store.Depth_exceeded _) -> true
      | Error _ -> false)

let test_depth_budget () =
  (* A 100-link chain: refused under a 50 budget (indeterminate, not a
     deny), resolved under a roomier one. *)
  let store = Store.create () in
  let n = 100 in
  for i = 0 to n - 2 do
    ignore (Store.write store (member_edge i (i + 1)))
  done;
  ignore (Store.write store (Tuple.make (node (n - 1)) ~relation:"member" (Tuple.User "alice")));
  (match Store.check ~budget:50 store ~obj:(node 0) ~relation:"member" ~user:"alice" with
  | Error (Store.Depth_exceeded b) -> Alcotest.(check int) "reports the budget" 50 b
  | Ok _ | Error _ -> Alcotest.fail "expected Depth_exceeded");
  match Store.check ~budget:200 store ~obj:(node 0) ~relation:"member" ~user:"alice" with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "chain end should be reachable"
  | Error e -> Alcotest.fail (Store.check_error_to_string e)

(* --- The PEP --------------------------------------------------------------- *)

let fig3_sources () = [ Combine.source ~name:"figure3" (Figure3.get ()) ]

let test_pep_reload_bumps_epoch_and_head () =
  let obs = Grid_obs.Obs.create () in
  let epochs = ref [] in
  Grid_obs.Event.subscribe (Grid_obs.Obs.events obs) (fun e ->
      if e.Grid_obs.Event.kind = "policy.epoch" then
        epochs := (Grid_obs.Event.attr e "epoch", Grid_obs.Event.attr e "cause") :: !epochs);
  let pep = Pep.create ~obs (fig3_sources ()) in
  let e1 = Pep.epoch pep in
  let z1 = Pep.head pep in
  Pep.reload pep (fig3_sources ());
  let e2 = Pep.epoch pep in
  Alcotest.(check bool) "reload bumps the epoch" true (e2 > e1);
  Alcotest.(check bool) "post-reload head is strictly newer" true
    (Zookie.newer_than (Pep.head pep) z1);
  Pep.reload pep [];
  Alcotest.(check bool) "reload to empty still bumps epoch" true (Pep.epoch pep > e2);
  Alcotest.(check int) "create + 2 reloads announced" 3 (List.length !epochs);
  List.iter
    (fun (epoch, _) -> Alcotest.(check bool) "epoch attr present" true (epoch <> None))
    !epochs;
  Alcotest.(check (option string)) "creation is labelled" (Some "create")
    (snd (List.nth !epochs 2))

let test_pep_snapshot_gone_after_reload () =
  let pep = Pep.create (fig3_sources ()) in
  let old = Pep.head pep in
  Pep.reload pep (fig3_sources ());
  let q =
    query_of_request
      (manage ~who:Figure3.kate_keahey ~action:Types.Action.Cancel ~owner:Figure3.bo_liu
         ~tag:(Some "NFC"))
  in
  (match Pep.callout_with ~consistency:(Store.Snapshot old) pep q with
  | Error (Grid_callout.Callout.System_error msg) ->
    Alcotest.(check bool) "names the rebac backend" true
      (String.length msg >= 6 && String.sub msg 0 6 = "rebac:")
  | Ok () | Error _ -> Alcotest.fail "expected System_error for an expired snapshot");
  (* but the same query at head still answers *)
  match Grid_callout.Callout.Batch.check (Pep.batch pep) q with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Grid_callout.Callout.error_to_string e)

let test_pep_ad_hoc_writes_bump_revision_not_epoch () =
  let pep = Pep.create (fig3_sources ()) in
  let e = Pep.epoch pep and r = Pep.revision pep in
  ignore
    (Store.write (Pep.store pep)
       (Tuple.make
          (Tuple.obj ~namespace:"g" ~id:"adhoc")
          ~relation:"member" (Tuple.User "alice")));
  Alcotest.(check int) "epoch unchanged" e (Pep.epoch pep);
  Alcotest.(check bool) "revision advanced" true (Pep.revision pep > r)

let test_figure3_scenarios_through_pep () =
  (* The paper's own narrated decisions, through the relationship
     backend, against the flat-file PEP. *)
  let sources = fig3_sources () in
  let rebac = Pep.of_sources sources in
  let flat = Grid_callout.File_pep.of_sources sources in
  let requests =
    [ start ~who:Figure3.bo_liu ~rsl:"&(executable=test1)(jobtag=ADS)(count=3)";
      start ~who:Figure3.bo_liu ~rsl:"&(executable=test1)(jobtag=ADS)(count=7)";
      start ~who:Figure3.kate_keahey ~rsl:"&(executable=TRANSP)(jobtag=NFC)";
      manage ~who:Figure3.kate_keahey ~action:Types.Action.Cancel ~owner:Figure3.bo_liu
        ~tag:(Some "NFC");
      manage ~who:Figure3.bo_liu ~action:Types.Action.Cancel ~owner:Figure3.kate_keahey
        ~tag:(Some "NFC") ]
  in
  List.iter
    (fun r ->
      let q = query_of_request r in
      Alcotest.(check bool) (Fmt.to_to_string Types.pp_request r) true (rebac q = flat q))
    requests

(* --- Soak: the monitor's oracle judges ReBAC decisions --------------------- *)

let test_soak_campaign_on_rebac_pep () =
  let module Soak = Core.Soak in
  let r =
    Soak.run
      { Soak.default_config with
        Soak.days = 0.5;
        jobs_per_day = 120;
        seed = 42;
        pep = Soak.Rebac_pep }
  in
  Alcotest.(check int) "no violations" 0 (List.length r.Soak.violations);
  Alcotest.(check bool) "campaign checked events" true (r.Soak.events_checked > 300);
  Alcotest.(check bool) "jobs were accepted" true (r.Soak.accepted > 10);
  Alcotest.(check bool) "outsiders were denied" true (r.Soak.denied > 0);
  Alcotest.(check bool) "policy churned" true (r.Soak.reloads >= 1)

let () =
  Alcotest.run "grid_rebac"
    [ ( "differential",
        List.map
          (fun (name, seeds) -> pinned_with seeds (rebac_agrees_with_compiled ~seed_name:name))
          seed_matrix
        @ [ pinned qcheck_single_source_agrees_with_eval;
            pinned qcheck_plan_is_reusable;
            pinned qcheck_pep_agrees_with_file_pep ] );
      ( "zookies",
        [ pinned qcheck_snapshot_pinned_decisions_are_stable;
          Alcotest.test_case "future tokens are errors" `Quick test_future_token_is_an_error;
          Alcotest.test_case "ordering is (epoch, revision) lexicographic" `Quick
            test_zookie_ordering;
          Alcotest.test_case "round trip and corruption detection" `Quick
            test_zookie_round_trip ] );
      ( "tuples",
        [ Alcotest.test_case "round trip" `Quick test_tuple_round_trip;
          Alcotest.test_case "malformed inputs rejected" `Quick test_tuple_rejects_malformed ] );
      ( "store",
        [ Alcotest.test_case "MVCC visibility across snapshots" `Quick test_store_mvcc;
          Alcotest.test_case "epoch is monotonic" `Quick test_store_epoch_is_monotonic ] );
      ( "expansion",
        [ Alcotest.test_case "cycles terminate and resolve" `Quick test_cycle_reaches_members;
          pinned qcheck_random_cyclic_graphs_terminate;
          Alcotest.test_case "depth budget is an error, not a deny" `Quick test_depth_budget ] );
      ( "pep",
        [ Alcotest.test_case "reload bumps epoch and head" `Quick
            test_pep_reload_bumps_epoch_and_head;
          Alcotest.test_case "expired snapshots answer System_error" `Quick
            test_pep_snapshot_gone_after_reload;
          Alcotest.test_case "ad-hoc writes bump revision, not epoch" `Quick
            test_pep_ad_hoc_writes_bump_revision_not_epoch;
          Alcotest.test_case "figure 3 scenarios agree with flat-file PEP" `Quick
            test_figure3_scenarios_through_pep ] );
      ( "soak",
        [ Alcotest.test_case "rebac campaign under the safety monitor" `Slow
            test_soak_campaign_on_rebac_pep ] ) ]
