(* The STS differential gate and unit suite.

   Six sections:

   - token: the signed capability token itself — codec round-trip,
     tamper evidence, every verify refusal, entitlement matching;
   - exchange: trust-relation matching, TTL capping, refusal paths,
     and refresh-before-expiry through the escrow;
   - enforcement: for each distribution mode, after a revocation at T
     no token-authorized permit happens later than T + the mode's
     propagation window;
   - revocation: an applied token revocation flushes the decision
     cache of every resource, plain world and fleet members alike;
   - differential: under a pinned seed matrix (1/7/42) a tokenized
     Fusion world must be decision- AND reason-equivalent to the plain
     proxy-path world for identical submission scripts — the token
     gate adds a credential check, never a policy opinion;
   - soak: tokenized campaigns run violation-free under the online
     safety monitor in all three modes, and the monitor's
     token-revocation invariant catches a planted violation. *)

open Core
module Sts = Core.Sts
module Token = Sts.Token
module Service = Sts.Service
module Validator = Sts.Validator
module Callout = Grid_callout.Callout
module Cache = Grid_callout.Cache

let dn = Grid_gsi.Dn.parse
let seeds = [ 1; 7; 42 ]
let population_size = 2_000

(* --- A minimal STS world ------------------------------------------------- *)

type world = {
  engine : Grid_sim.Engine.t;
  trust : Grid_gsi.Ca.Trust_store.store;
  ca : Grid_gsi.Ca.t;
  service : Service.t;
}

let setup ?default_ttl ?relations ?(mode = Validator.Short_ttl) ?(obs = Grid_obs.Obs.noop) () =
  Grid_util.Ids.reset ();
  Grid_crypto.Keypair.reset_keystore ();
  let engine = Grid_sim.Engine.create () in
  let ca = Grid_gsi.Ca.create ~now:0.0 "/O=Grid/CN=CA" in
  let trust = Grid_gsi.Ca.Trust_store.create () in
  Grid_gsi.Ca.Trust_store.add trust (Grid_gsi.Ca.certificate ca);
  let service =
    Service.create ~name:"test-sts" ?default_ttl ~mode ?relations ~engine ~trust ~obs ()
  in
  { engine; trust; ca; service }

let identity w ?(lifetime = 43_200.0) name =
  Grid_gsi.Identity.create ~ca:w.ca ~now:(Grid_sim.Engine.now w.engine)
    ~lifetime ("/O=Grid/CN=" ^ name)

let credential_of w id =
  Grid_gsi.Credential.of_identity id ~challenge:(Service.fresh_challenge w.service)

(* --- Token -------------------------------------------------------------- *)

let signing_key () =
  let kp = Grid_crypto.Keypair.generate ~seed_material:"test-sts-key" in
  Grid_crypto.Keypair.register kp;
  kp

let sample_token ?(audience = "*") ?(entitlements = [ "*" ]) key =
  Token.make ~subject:(dn "/O=Grid/CN=Alice") ~audience ~entitlements
    ~jti:"jti-1" ~epoch:3 ~issued_at:10.0 ~not_after:910.0
    ~signing_key:(Grid_crypto.Keypair.secret key)

let test_token_roundtrip () =
  let key = signing_key () in
  let t = sample_token key in
  match Token.decode (Token.encode t) with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok t' ->
    Alcotest.(check bool) "identical token" true (t = t');
    Alcotest.(check bool) "decoded token verifies" true
      (Token.verify t' ~sts_key:(Grid_crypto.Keypair.public key)
         ~presenter:(dn "/O=Grid/CN=Alice") ~audience:"gram" ~now:500.0
      = Ok ())

let test_token_verify_refusals () =
  let key = signing_key () in
  let pub = Grid_crypto.Keypair.public key in
  let t = sample_token ~audience:"gram" key in
  let alice = dn "/O=Grid/CN=Alice" in
  let verify ?(presenter = alice) ?(audience = "gram") ?(now = 500.0) tok =
    Token.verify tok ~sts_key:pub ~presenter ~audience ~now
  in
  Alcotest.(check bool) "valid" true (verify t = Ok ());
  (match verify { t with Token.entitlements = [ "start"; "cancel" ] } with
  | Error Token.Bad_signature -> ()
  | _ -> Alcotest.fail "entitlement tamper accepted");
  (match verify ~now:1e6 t with
  | Error Token.Expired -> ()
  | _ -> Alcotest.fail "expired token accepted");
  (match verify ~now:1.0 t with
  | Error Token.Not_yet_valid -> ()
  | _ -> Alcotest.fail "pre-validity token accepted");
  (match verify ~audience:"storage" t with
  | Error (Token.Audience_mismatch _) -> ()
  | _ -> Alcotest.fail "wrong audience accepted");
  match verify ~presenter:(dn "/O=Grid/CN=Mallory") t with
  | Error (Token.Subject_mismatch _) -> ()
  | _ -> Alcotest.fail "stolen token accepted"

let test_token_issued_at_instant () =
  (* The decimal rendering of a timestamp can round up past the true
     issue time; the codec must keep a token valid at the very instant
     it was minted (the in-process batch lane validates with zero
     delay). *)
  let key = signing_key () in
  let issued_at = 1234.567_890_123_4 in
  let t =
    Token.make ~subject:(dn "/O=Grid/CN=Alice") ~audience:"*"
      ~entitlements:[ "*" ] ~jti:"jti-i" ~epoch:1 ~issued_at
      ~not_after:(issued_at +. 900.0)
      ~signing_key:(Grid_crypto.Keypair.secret key)
  in
  let t' = Result.get_ok (Token.decode (Token.encode t)) in
  Alcotest.(check bool) "issued_at survives exactly" true
    (t'.Token.issued_at = issued_at);
  Alcotest.(check bool) "valid at the minting instant" true
    (Token.verify t' ~sts_key:(Grid_crypto.Keypair.public key)
       ~presenter:(dn "/O=Grid/CN=Alice") ~audience:"gram" ~now:issued_at
    = Ok ())

let test_token_permits () =
  let key = signing_key () in
  let wildcard = sample_token key in
  Alcotest.(check bool) "wildcard permits start" true
    (Token.permits wildcard Grid_policy.Types.Action.Start);
  let scoped = sample_token ~entitlements:[ "start"; "information" ] key in
  Alcotest.(check bool) "scoped permits start" true
    (Token.permits scoped Grid_policy.Types.Action.Start);
  Alcotest.(check bool) "scoped refuses cancel" false
    (Token.permits scoped Grid_policy.Types.Action.Cancel)

(* --- Exchange and refresh ------------------------------------------------ *)

let test_exchange_default_relation () =
  let w = setup () in
  let alice = identity w "Alice" in
  match Service.exchange w.service ~now:0.0 (credential_of w alice) with
  | Error e -> Alcotest.failf "exchange refused: %s" (Service.exchange_error_to_string e)
  | Ok token ->
    Alcotest.(check bool) "subject is the identity" true
      (Grid_gsi.Dn.equal token.Token.subject (Grid_gsi.Identity.subject alice));
    Alcotest.(check (list string)) "permissive entitlements" [ "*" ]
      token.Token.entitlements;
    Alcotest.(check bool) "TTL is the service default" true
      (token.Token.not_after = Service.default_ttl w.service)

let test_exchange_relation_matching () =
  let relations =
    [ Sts.Trust.relation ~subject_prefix:(dn "/O=Grid/OU=fusion")
        ~entitlements:[ "start" ] ~max_ttl:60.0 "fusion-members" ]
  in
  let w = setup ~relations () in
  let member =
    Grid_gsi.Identity.create ~ca:w.ca ~now:0.0 ~lifetime:3600.0
      "/O=Grid/OU=fusion/CN=Bob"
  in
  (match Service.exchange w.service ~now:0.0 (credential_of w member) with
  | Ok token ->
    Alcotest.(check (list string)) "relation entitlements" [ "start" ]
      token.Token.entitlements;
    Alcotest.(check bool) "relation caps the TTL" true (token.Token.not_after = 60.0)
  | Error e -> Alcotest.failf "member refused: %s" (Service.exchange_error_to_string e));
  let outsider = identity w "Outsider" in
  match Service.exchange w.service ~now:0.0 (credential_of w outsider) with
  | Error (Service.No_matching_relation _) -> ()
  | Ok _ -> Alcotest.fail "outsider exchanged without a relation"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Service.exchange_error_to_string e)

let test_exchange_revoked_subject_refused () =
  let w = setup () in
  let alice = identity w "Alice" in
  ignore (Result.get_ok (Service.exchange w.service ~now:0.0 (credential_of w alice)));
  Service.revoke_subject w.service ~now:10.0 (Grid_gsi.Identity.subject alice);
  match Service.exchange w.service ~now:20.0 (credential_of w alice) with
  | Error (Service.Subject_revoked _) -> ()
  | Ok _ -> Alcotest.fail "revoked subject exchanged a new token"
  | Error e -> Alcotest.failf "wrong refusal: %s" (Service.exchange_error_to_string e)

(* Revocation reads only the revoked subject's grants: the jtis it
   revokes are exactly that subject's outstanding ones, in jti order, and
   another subject's latest [not_after] is untouched. *)
let test_revoke_subject_grants () =
  let obs = Grid_obs.Obs.create () in
  let revoked = ref [] in
  Grid_obs.Event.subscribe (Grid_obs.Obs.events obs) (fun e ->
      if e.Grid_obs.Event.kind = "token.revoked" then
        revoked := Option.get (Grid_obs.Event.attr e "jti") :: !revoked);
  let w = setup ~obs () in
  let alice = identity w "Alice" and bob = identity w "Bob" in
  let mint who now =
    match Service.exchange w.service ~now (credential_of w who) with
    | Ok token -> token.Token.jti
    | Error e -> Alcotest.failf "exchange refused: %s" (Service.exchange_error_to_string e)
  in
  let a1 = mint alice 0.0 in
  let b1 = mint bob 5.0 in
  let a2 = mint alice 10.0 in
  let b2 = mint bob 20.0 in
  let alice_dn = Grid_gsi.Identity.subject alice in
  let bob_dn = Grid_gsi.Identity.subject bob in
  Service.revoke_subject w.service ~now:30.0 alice_dn;
  Alcotest.(check (list string)) "alice's grants, then the subject-wide entry"
    (List.sort String.compare [ a1; a2 ]
    @ [ "subject-revocation:" ^ Grid_gsi.Dn.to_string alice_dn ])
    (List.rev !revoked);
  Alcotest.(check bool) "no bob grant revoked" false
    (List.mem b1 !revoked || List.mem b2 !revoked);
  let ttl = Service.default_ttl w.service in
  Alcotest.(check (option (float 0.0))) "bob's latest not_after" (Some (20.0 +. ttl))
    (Service.outstanding_not_after w.service bob_dn);
  Alcotest.(check (option (float 0.0))) "alice's revoked grants still count"
    (Some (10.0 +. ttl))
    (Service.outstanding_not_after w.service alice_dn);
  Alcotest.(check (option (float 0.0))) "unknown subject" None
    (Service.outstanding_not_after w.service (dn "/O=Grid/CN=Nobody"))

let test_refresh_through_escrow () =
  let w = setup () in
  let alice = identity w "Alice" in
  let subject = Grid_gsi.Identity.subject alice in
  Alcotest.(check bool) "first deposit" true
    (Service.deposit w.service ~identity:alice ~authorized_renewers:[ subject ]
       ~now:0.0 ()
    = `Deposited);
  let proxy, token0 =
    Result.get_ok (Service.proxy_with_token w.service ~now:0.0 alice)
  in
  (* shortly before expiry the client redeems its current proxy for a
     fresh one *)
  let refresh_at = 0.8 *. token0.Token.not_after in
  (match
     Service.refresh w.service ~now:refresh_at ~owner:subject
       (Grid_gsi.Credential.of_identity proxy
          ~challenge:(Service.fresh_challenge w.service))
   with
  | Error e -> Alcotest.failf "refresh refused: %s" (Service.refresh_error_to_string e)
  | Ok (_proxy', token1) ->
    Alcotest.(check bool) "fresh token outlives the old" true
      (token1.Token.not_after > token0.Token.not_after);
    Alcotest.(check bool) "fresh jti" true (token1.Token.jti <> token0.Token.jti));
  (* a revoked subject cannot refresh *)
  Service.revoke_subject w.service ~now:(refresh_at +. 1.0) subject;
  match
    Service.refresh w.service ~now:(refresh_at +. 2.0) ~owner:subject
      (Grid_gsi.Credential.of_identity proxy
         ~challenge:(Service.fresh_challenge w.service))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "revoked subject refreshed"

let test_escrow_replacement_reported () =
  let w = setup () in
  let alice = identity w "Alice" in
  let subject = Grid_gsi.Identity.subject alice in
  ignore
    (Service.deposit w.service ~identity:alice ~authorized_renewers:[ subject ]
       ~now:0.0 ());
  Alcotest.(check bool) "re-deposit reports replacement" true
    (Service.deposit w.service ~identity:alice ~authorized_renewers:[ subject ]
       ~now:1.0 ()
    = `Replaced);
  Alcotest.(check int) "replacement counted" 1
    (Service.escrow_replacements w.service)

(* --- Per-mode revocation enforcement ------------------------------------ *)

(* The invariant under test, directly: once a subject is revoked at T,
   a token-gated PEP never answers a permit for it later than
   T + propagation window — whatever the mode does in between. *)
let enforcement_case mode () =
  let w = setup ~mode ~default_ttl:900.0 () in
  let validator =
    Service.attach_validator w.service ~name:"test-resource" ()
  in
  let pep =
    Sts.Pep.callout ~validator ~sts_key:(Service.public_key w.service)
      ~audience:"*"
      ~now:(fun () -> Grid_sim.Engine.now w.engine)
      Callout.permit_all
  in
  let alice = identity w "Alice" in
  let subject = Grid_gsi.Identity.subject alice in
  ignore
    (Service.deposit w.service ~identity:alice ~authorized_renewers:[ subject ]
       ~now:0.0 ());
  let current = ref (Result.get_ok (Service.proxy_with_token w.service ~now:0.0 alice)) in
  let query () =
    Callout.Query.make ~requester:subject
      ~credential:
        (Grid_gsi.Credential.of_identity (fst !current)
           ~challenge:(Service.fresh_challenge w.service))
      ~job_id:"job-1"
      (Callout.Query.Start (Grid_rsl.Parser.parse_clause_exn "&(executable=x)"))
  in
  let permitted = ref [] in
  let revoke_at = 1000.0 in
  (* probe every 100 s over two windows' worth of campaign; refresh like
     a live client at 80% of TTL so short-TTL enforcement is tested
     against an *attacker* holding the last pre-revocation token, not a
     cooperating client *)
  for i = 0 to 40 do
    let at = float_of_int i *. 100.0 in
    Grid_sim.Engine.schedule_at w.engine at (fun () ->
        let now = Grid_sim.Engine.now w.engine in
        if now < revoke_at then begin
          match
            Service.refresh w.service ~now ~owner:subject
              (Grid_gsi.Credential.of_identity (fst !current)
                 ~challenge:(Service.fresh_challenge w.service))
          with
          | Ok fresh -> current := fresh
          | Error _ -> ()
        end;
        if pep (query ()) = Ok () then permitted := now :: !permitted)
  done;
  Grid_sim.Engine.schedule_at w.engine revoke_at (fun () ->
      Service.revoke_subject w.service ~now:revoke_at subject);
  Grid_sim.Engine.run_until w.engine 4200.0;
  Validator.stop validator;
  Grid_sim.Engine.run w.engine;
  let window = Service.propagation_window w.service in
  let late =
    List.filter (fun at -> at > revoke_at +. window) !permitted
  in
  Alcotest.(check (list (float 0.0)))
    (Printf.sprintf "no permit after T + %.0fs in %s mode" window
       (Validator.mode_to_string mode))
    [] late;
  Alcotest.(check bool) "permits flowed before the revocation" true
    (List.exists (fun at -> at < revoke_at) !permitted);
  (* the stateful modes enforce long before expiry-by-TTL would *)
  if mode <> Validator.Short_ttl then
    Alcotest.(check bool) "stateful mode beats the TTL bound" true
      (window < Service.default_ttl w.service)

let test_validator_state_profile () =
  (* Push and pull hold the revocation set; short-TTL holds nothing —
     the footprint trade the bench quantifies. *)
  let residency mode =
    let w = setup ~mode () in
    let v = Service.attach_validator w.service ~name:"site" () in
    let alice = identity w "Alice" in
    ignore (Result.get_ok (Service.proxy_with_token w.service ~now:0.0 alice));
    Service.revoke_subject w.service ~now:1.0 (Grid_gsi.Identity.subject alice);
    Grid_sim.Engine.run_until w.engine 200.0;
    Validator.stop v;
    Grid_sim.Engine.run w.engine;
    (Validator.entries v, Validator.state_bytes v, Validator.enforcement_latencies v)
  in
  let entries_push, bytes_push, lat_push = residency Validator.Push in
  Alcotest.(check bool) "push holds entries" true (entries_push > 0 && bytes_push > 0);
  Alcotest.(check bool) "push records enforcement latency" true (lat_push <> []);
  let entries_pull, bytes_pull, lat_pull = residency Validator.Pull in
  Alcotest.(check bool) "pull holds entries" true (entries_pull > 0 && bytes_pull > 0);
  Alcotest.(check bool) "pull records enforcement latency" true (lat_pull <> []);
  let entries_ttl, bytes_ttl, lat_ttl = residency Validator.Short_ttl in
  Alcotest.(check int) "short-ttl holds nothing" 0 entries_ttl;
  Alcotest.(check int) "short-ttl zero bytes" 0 bytes_ttl;
  Alcotest.(check (list (float 0.0))) "short-ttl records no latency" [] lat_ttl

(* --- The token PEP ------------------------------------------------------- *)

let test_pep_fails_closed () =
  let w = setup () in
  let pep =
    Sts.Pep.callout ~sts_key:(Service.public_key w.service) ~audience:"*"
      ~now:(fun () -> 0.0)
      Callout.permit_all
  in
  let bare =
    Callout.Query.make ~requester:(dn "/O=Grid/CN=U") ~job_id:"job-1"
      (Callout.Query.Start (Grid_rsl.Parser.parse_clause_exn "&(executable=x)"))
  in
  (match pep bare with
  | Error (Callout.Denied m) ->
    Alcotest.(check bool) "names the missing token" true
      (Grid_util.Strings.starts_with ~prefix:"no credential" m)
  | _ -> Alcotest.fail "credential-less query passed the token gate");
  (* a plain proxy without a token extension is refused too *)
  let alice = identity w "Alice" in
  let plain =
    Callout.Query.make ~requester:(Grid_gsi.Identity.subject alice)
      ~credential:(credential_of w alice) ~job_id:"job-1"
      (Callout.Query.Start (Grid_rsl.Parser.parse_clause_exn "&(executable=x)"))
  in
  match pep plain with
  | Error (Callout.Denied m) ->
    Alcotest.(check bool) "names the missing extension" true
      (Grid_util.Strings.starts_with ~prefix:"credential carries no" m)
  | _ -> Alcotest.fail "token-less proxy passed the token gate"

let test_pep_delegates_decision_and_reason () =
  (* The gate's only opinion is credential validity: the inner PEP's
     decision AND reason pass through bit-identically. *)
  let w = setup () in
  let inner = Callout.deny_all ~reason:"owner: queue reserved for admin" in
  let pep =
    Sts.Pep.callout ~sts_key:(Service.public_key w.service) ~audience:"*"
      ~now:(fun () -> Grid_sim.Engine.now w.engine)
      inner
  in
  let alice = identity w "Alice" in
  let proxy, _ = Result.get_ok (Service.proxy_with_token w.service ~now:0.0 alice) in
  let q =
    Callout.Query.make ~requester:(Grid_gsi.Identity.subject alice)
      ~credential:
        (Grid_gsi.Credential.of_identity proxy
           ~challenge:(Service.fresh_challenge w.service))
      ~job_id:"job-1"
      (Callout.Query.Start (Grid_rsl.Parser.parse_clause_exn "&(executable=x)"))
  in
  Alcotest.(check bool) "inner reason passes through verbatim" true
    (pep q = inner q)

(* --- Differential gate --------------------------------------------------- *)

let submit_label = function
  | Ok (r : Gram.Protocol.submit_reply) ->
    "accepted as " ^ r.Gram.Protocol.submitted_as
  | Error e -> "refused: " ^ Gram.Protocol.submit_error_to_string e

type who =
  | Cast of string
  | Rank of int

let script ~seed =
  let probe = Population.create ~seed ~size:population_size in
  let rng = Util.Rng.create ~seed in
  let cast =
    [ (Cast Fusion.bo_liu,
       "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)");
      (Cast Fusion.kate_keahey,
       "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)");
      (Cast Fusion.outsider,
       "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)") ]
  in
  cast
  @ List.init 16 (fun _ ->
        let rank = Population.sample probe rng in
        (Rank rank, Population.template probe rng rank))

let world_results ~seed ~sts entries =
  let pop = Population.create ~seed ~size:population_size in
  let w = Fusion.build ~nodes:16 ~population:pop ?sts () in
  let tb = w.Fusion.testbed in
  List.map
    (fun (who, rsl) ->
      let base =
        match who with
        | Cast dn -> Testbed.add_user tb dn
        | Rank rank ->
          Population.identity pop ~ca:(Testbed.ca tb) ~now:(Testbed.now tb) rank
      in
      let user =
        match w.Fusion.sts with
        | None -> base
        | Some s ->
          fst
            (Result.get_ok
               (Service.proxy_with_token s ~now:(Testbed.now tb) base))
      in
      let client = Testbed.client tb ~user ~resource:w.Fusion.resource in
      submit_label (Gram.Client.submit_sync client ~rsl))
    entries

let test_differential seed () =
  let entries = script ~seed in
  let plain = world_results ~seed ~sts:None entries in
  Alcotest.(check bool) "script has accepts" true
    (List.exists (String.starts_with ~prefix:"accepted") plain);
  Alcotest.(check bool) "script has refusals" true
    (List.exists (String.starts_with ~prefix:"refused") plain);
  List.iter
    (fun mode ->
      let tokenized = world_results ~seed ~sts:(Some mode) entries in
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d mode %s entry %d" seed
               (Validator.mode_to_string mode) i)
            a b)
        (List.combine plain tokenized))
    Validator.all_modes

(* --- Revocation flushes the decision cache ------------------------------ *)

(* The decision cache sits outside the token gate, so a cached permit
   would outlive a revoked token until its TTL: each resource's
   validator must flush its cache when it applies a revocation. Checked
   on the plain world and on every member of a fleet. *)
let revocation_flush_case ?fleet () =
  let w = Fusion.build ?fleet ~sts:Validator.Push ~authz_cache:64 () in
  let tb = w.Fusion.testbed in
  let service = Option.get w.Fusion.sts in
  let resources =
    match w.Fusion.fleet with
    | None -> [ w.Fusion.resource ]
    | Some f -> List.map Fleet.member_resource (Fleet.members f)
  in
  let base = Testbed.user tb Fusion.bo_liu in
  let proxy, _token =
    Result.get_ok (Service.proxy_with_token service ~now:(Testbed.now tb) base)
  in
  let status (client, contact, _) =
    Gram.Client.manage_sync client ~contact Gram.Protocol.Status
  in
  let sites =
    List.map
      (fun resource ->
        let client = Testbed.client tb ~user:proxy ~resource in
        let reply =
          Result.get_ok
            (Gram.Client.submit_sync client
               ~rsl:
                 "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(simduration=36000)")
        in
        let cache = Option.get (Gram.Resource.authz_cache resource) in
        (client, reply.Gram.Protocol.job_contact, cache))
      resources
  in
  let invalidations_before =
    List.map
      (fun ((_, _, cache) as site) ->
        Alcotest.(check bool) "first poll permitted" true (Result.is_ok (status site));
        let hits = Cache.hits cache in
        Alcotest.(check bool) "repeat poll permitted" true (Result.is_ok (status site));
        Alcotest.(check int) "repeat poll served from the cache" (hits + 1) (Cache.hits cache);
        Cache.invalidations cache)
      sites
  in
  Service.revoke_subject service ~now:(Testbed.now tb) (Grid_gsi.Identity.subject base);
  Testbed.run_for tb (Service.propagation_window service +. 1.0);
  List.iter2
    (fun ((_, _, cache) as site) before ->
      Alcotest.(check bool) "the revocation flushed the cache" true
        (Cache.invalidations cache > before);
      match status site with
      | Error (Gram.Protocol.Not_authorized _) -> ()
      | Error e ->
        Alcotest.failf "wrong refusal: %s" (Gram.Protocol.management_error_to_string e)
      | Ok _ -> Alcotest.fail "revoked token still permitted")
    sites invalidations_before

(* --- Soak campaigns under the online monitor ----------------------------- *)

let small_config mode =
  { Soak.default_config with
    Soak.days = 0.5;
    jobs_per_day = 120;
    seed = 42;
    tokens = Some mode }

let test_soak_tokenized mode () =
  let r = Soak.run (small_config mode) in
  Alcotest.(check (list string))
    "no violations"
    []
    (List.map Grid_obs.Monitor.class_to_string (Soak.violation_classes r));
  Alcotest.(check bool) "jobs were accepted" true (r.Soak.accepted > 10);
  Alcotest.(check bool) "renewals went through the escrow" true (r.Soak.renewals > 0);
  Alcotest.(check bool) "the campaign revoked at the STS" true (r.Soak.revocations > 0);
  Alcotest.(check bool) "the monitor checked events" true (r.Soak.events_checked > 500)

let test_soak_injection () =
  let r =
    Soak.run
      { (small_config Validator.Push) with
        Soak.inject = Some Grid_obs.Monitor.Token_revocation }
  in
  Alcotest.(check (list string))
    "exactly the planted class detected"
    [ Grid_obs.Monitor.class_to_string Grid_obs.Monitor.Token_revocation ]
    (List.map Grid_obs.Monitor.class_to_string (Soak.violation_classes r))

let () =
  Alcotest.run "grid_sts"
    [ ( "token",
        [ Alcotest.test_case "codec roundtrip" `Quick test_token_roundtrip;
          Alcotest.test_case "verify refusals" `Quick test_token_verify_refusals;
          Alcotest.test_case "valid at minting instant" `Quick
            test_token_issued_at_instant;
          Alcotest.test_case "entitlement matching" `Quick test_token_permits ] );
      ( "exchange",
        [ Alcotest.test_case "default relation" `Quick test_exchange_default_relation;
          Alcotest.test_case "relation matching" `Quick test_exchange_relation_matching;
          Alcotest.test_case "revoked subject refused" `Quick
            test_exchange_revoked_subject_refused;
          Alcotest.test_case "revoke subject reads its own grants" `Quick
            test_revoke_subject_grants;
          Alcotest.test_case "refresh through escrow" `Quick test_refresh_through_escrow;
          Alcotest.test_case "escrow replacement reported" `Quick
            test_escrow_replacement_reported ] );
      ( "enforcement",
        List.map
          (fun mode ->
            Alcotest.test_case
              (Printf.sprintf "%s: no permit outside the window"
                 (Validator.mode_to_string mode))
              `Quick (enforcement_case mode))
          Validator.all_modes
        @ [ Alcotest.test_case "validator state profile" `Quick
              test_validator_state_profile ] );
      ( "pep",
        [ Alcotest.test_case "fails closed" `Quick test_pep_fails_closed;
          Alcotest.test_case "delegates decision and reason" `Quick
            test_pep_delegates_decision_and_reason ] );
      ( "revocation",
        [ Alcotest.test_case "plain world" `Quick (revocation_flush_case ?fleet:None);
          Alcotest.test_case "2-member fleet" `Quick (revocation_flush_case ~fleet:2) ] );
      ( "differential",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick
              (test_differential seed))
          seeds );
      ( "soak",
        List.map
          (fun mode ->
            Alcotest.test_case
              (Printf.sprintf "tokens %s: monitored campaign clean"
                 (Validator.mode_to_string mode))
              `Slow (test_soak_tokenized mode))
          Validator.all_modes
        @ [ Alcotest.test_case "inject token_revocation -> caught" `Slow
              test_soak_injection ] ) ]
