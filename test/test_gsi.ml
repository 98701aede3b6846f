(* Tests for grid_gsi: DNs, certificates, CAs, proxies, credential
   validation, gridmap, authentication. *)

open Grid_gsi

let setup () =
  Grid_crypto.Keypair.reset_keystore ();
  Grid_util.Ids.reset ()

let dn = Alcotest.testable Dn.pp Dn.equal

(* --- Distinguished names -------------------------------------------- *)

let test_dn_parse_roundtrip () =
  let s = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" in
  Alcotest.(check string) "roundtrip" s (Dn.to_string (Dn.parse s))

let test_dn_parse_errors () =
  let bad s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" s)
      true
      (try
         ignore (Dn.parse s);
         false
       with Dn.Parse_error _ -> true)
  in
  bad "";
  bad "no-slash";
  bad "/O=";
  bad "/=value";
  bad "/O=Grid/plain"

let test_dn_prefix () =
  let org = Dn.parse "/O=Grid/O=Globus/OU=mcs.anl.gov" in
  let kate = Dn.parse "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" in
  let other = Dn.parse "/O=Grid/O=Globus/OU=cs.uchicago.edu/CN=Sam Meder" in
  Alcotest.(check bool) "org prefixes member" true (Dn.is_prefix org kate);
  Alcotest.(check bool) "reflexive" true (Dn.is_prefix kate kate);
  Alcotest.(check bool) "not member of other org" false (Dn.is_prefix org other);
  Alcotest.(check bool) "longer is not prefix of shorter" false (Dn.is_prefix kate org)

let test_dn_common_name () =
  Alcotest.(check (option string)) "cn" (Some "Kate Keahey")
    (Dn.common_name (Dn.parse "/O=Grid/CN=Kate Keahey"));
  Alcotest.(check (option string)) "last cn wins" (Some "proxy")
    (Dn.common_name (Dn.parse "/O=Grid/CN=Kate Keahey/CN=proxy"));
  Alcotest.(check (option string)) "no cn" None (Dn.common_name (Dn.parse "/O=Grid"))

let test_dn_append () =
  let d = Dn.append (Dn.parse "/O=Grid") ~attr:"CN" ~value:"proxy" in
  Alcotest.(check string) "appended" "/O=Grid/CN=proxy" (Dn.to_string d)

(* --- Certificates and CAs ------------------------------------------- *)

let make_ca () = Ca.create ~now:0.0 "/O=Grid/CN=Test CA"

let test_ca_self_signed () =
  setup ();
  let ca = make_ca () in
  let cert = Ca.certificate ca in
  Alcotest.(check bool) "self-signature verifies" true
    (Cert.verify_signature cert ~issuer_key:cert.Cert.public_key);
  Alcotest.(check bool) "kind" true (cert.Cert.kind = Cert.Authority)

let test_cert_validity_window () =
  setup ();
  let ca = make_ca () in
  let id = Identity.create ~ca ~now:0.0 ~lifetime:100.0 "/O=Grid/CN=User" in
  let cert = Identity.certificate id in
  Alcotest.(check bool) "valid now" true (Cert.valid_at cert ~now:50.0);
  Alcotest.(check bool) "expired" false (Cert.valid_at cert ~now:101.0);
  Alcotest.(check bool) "not yet valid" false (Cert.valid_at cert ~now:(-1.0))

let test_cert_fingerprint_changes () =
  setup ();
  let ca = make_ca () in
  let a = Identity.create ~ca ~now:0.0 "/O=Grid/CN=A" in
  let b = Identity.create ~ca ~now:0.0 "/O=Grid/CN=B" in
  Alcotest.(check bool) "distinct certs, distinct fingerprints" false
    (String.equal
       (Cert.fingerprint (Identity.certificate a))
       (Cert.fingerprint (Identity.certificate b)))

let test_trust_store_rejects_non_authority () =
  setup ();
  let ca = make_ca () in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=U" in
  let store = Ca.Trust_store.create () in
  Alcotest.(check bool) "raises" true
    (try
       Ca.Trust_store.add store (Identity.certificate id);
       false
     with Invalid_argument _ -> true)

(* --- Credentials ------------------------------------------------------ *)

let trust_of ca =
  let store = Ca.Trust_store.create () in
  Ca.Trust_store.add store (Ca.certificate ca);
  store

let test_credential_validates () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Kate Keahey" in
  let cred = Credential.of_identity id ~challenge:"c1" in
  match Credential.validate cred ~trust ~now:1.0 with
  | Ok subject -> Alcotest.check dn "subject" (Identity.subject id) subject
  | Error e -> Alcotest.failf "unexpected: %s" (Credential.error_to_string e)

let test_credential_untrusted_root () =
  setup ();
  let ca = make_ca () in
  let rogue = Ca.create ~now:0.0 "/O=Rogue/CN=Evil CA" in
  let trust = trust_of ca in
  let id = Identity.create ~ca:rogue ~now:0.0 "/O=Rogue/CN=Mallory" in
  let cred = Credential.of_identity id ~challenge:"c" in
  match Credential.validate cred ~trust ~now:1.0 with
  | Ok _ -> Alcotest.fail "rogue credential accepted"
  | Error (Credential.Untrusted_root _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Credential.error_to_string e)

let test_credential_expired () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 ~lifetime:10.0 "/O=Grid/CN=Short" in
  let cred = Credential.of_identity id ~challenge:"c" in
  match Credential.validate cred ~trust ~now:11.0 with
  | Error (Credential.Expired _) -> ()
  | Ok _ -> Alcotest.fail "expired credential accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Credential.error_to_string e)

let test_proxy_chain_validates () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Kate Keahey" in
  let proxy = Identity.delegate id ~now:0.0 in
  let cred = Credential.of_identity proxy ~challenge:"c" in
  (match Credential.validate cred ~trust ~now:1.0 with
  | Ok subject ->
    (* Effective subject is the EEC's, not the proxy's. *)
    Alcotest.check dn "effective subject" (Identity.subject id) subject
  | Error e -> Alcotest.failf "unexpected: %s" (Credential.error_to_string e));
  Alcotest.(check int) "depth" 1 (Credential.delegation_depth cred)

let test_deep_delegation () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Root User" in
  let rec go id depth = if depth = 0 then id else go (Identity.delegate id ~now:0.0) (depth - 1) in
  let deep = go id 8 in
  let cred = Credential.of_identity deep ~challenge:"c" in
  (match Credential.validate cred ~trust ~now:1.0 with
  | Ok subject -> Alcotest.check dn "still the EEC" (Identity.subject id) subject
  | Error e -> Alcotest.failf "unexpected: %s" (Credential.error_to_string e));
  Alcotest.(check int) "depth 8" 8 (Credential.delegation_depth cred)

let test_proxy_expires_independently () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 ~lifetime:1000.0 "/O=Grid/CN=U" in
  let proxy = Identity.delegate id ~now:0.0 ~lifetime:10.0 in
  let cred = Credential.of_identity proxy ~challenge:"c" in
  match Credential.validate cred ~trust ~now:20.0 with
  | Error (Credential.Expired d) ->
    Alcotest.(check bool) "the proxy is what expired" true
      (Dn.common_name d = Some "proxy")
  | Ok _ -> Alcotest.fail "expired proxy accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Credential.error_to_string e)

let test_possession_proof_required () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=U" in
  let cred = Credential.of_identity id ~challenge:"c" in
  (* Replay the chain with a forged proof: stolen certificates without the
     private key must not authenticate. *)
  let forged = { cred with Credential.proof = "forged" } in
  match Credential.validate forged ~trust ~now:1.0 with
  | Error Credential.Bad_possession_proof -> ()
  | Ok _ -> Alcotest.fail "forged proof accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Credential.error_to_string e)

let test_tampered_chain_rejected () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Honest" in
  let cred = Credential.of_identity id ~challenge:"c" in
  (* Rewrite the leaf subject: signature must break. *)
  let tampered_leaf =
    match cred.Credential.chain with
    | leaf :: rest ->
      { leaf with Cert.subject = Dn.parse "/O=Grid/CN=Impostor" } :: rest
    | [] -> assert false
  in
  let tampered = { cred with Credential.chain = tampered_leaf } in
  match Credential.validate tampered ~trust ~now:1.0 with
  | Error (Credential.Bad_signature _) -> ()
  | Ok _ -> Alcotest.fail "tampered certificate accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Credential.error_to_string e)

let test_revoked_certificate_rejected () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Compromised" in
  let cred = Credential.of_identity id ~challenge:"c" in
  (* Valid before revocation... *)
  (match Credential.validate cred ~trust ~now:1.0 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Credential.error_to_string e));
  (* ...rejected after. *)
  Ca.Trust_store.revoke trust (Identity.certificate id);
  (match Credential.validate cred ~trust ~now:1.0 with
  | Error (Credential.Revoked d) ->
    Alcotest.(check string) "names the cert" "/O=Grid/CN=Compromised" (Dn.to_string d)
  | Ok _ -> Alcotest.fail "revoked credential accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Credential.error_to_string e));
  (* Proxies of a revoked end-entity fail too: the chain contains the
     revoked certificate. *)
  let proxy = Identity.delegate id ~now:0.0 in
  let proxy_cred = Credential.of_identity proxy ~challenge:"c2" in
  match Credential.validate proxy_cred ~trust ~now:1.0 with
  | Error (Credential.Revoked _) -> ()
  | Ok _ -> Alcotest.fail "proxy of revoked identity accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Credential.error_to_string e)

let test_revoked_proxy_only () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=User" in
  let proxy = Identity.delegate id ~now:0.0 in
  Ca.Trust_store.revoke trust (Identity.certificate proxy);
  (* The proxy is dead, the end entity is fine. *)
  (match Credential.validate (Credential.of_identity proxy ~challenge:"a") ~trust ~now:1.0 with
  | Error (Credential.Revoked _) -> ()
  | _ -> Alcotest.fail "revoked proxy accepted");
  match Credential.validate (Credential.of_identity id ~challenge:"b") ~trust ~now:1.0 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "end entity wrongly affected: %s" (Credential.error_to_string e)

let test_limited_proxy_flag () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=User" in
  let full = Identity.delegate id ~now:0.0 in
  let limited = Identity.delegate id ~now:0.0 ~limited:true in
  Alcotest.(check bool) "full proxy not limited" false (Identity.is_limited full);
  Alcotest.(check bool) "limited proxy flagged" true (Identity.is_limited limited);
  (* Limitation is inherited by further delegation. *)
  let grandchild = Identity.delegate limited ~now:0.0 in
  Alcotest.(check bool) "inherited" true (Identity.is_limited grandchild);
  (* The credential still authenticates. *)
  let cred = Credential.of_identity limited ~challenge:"c" in
  Alcotest.(check bool) "credential flagged" true (Credential.is_limited cred);
  match Credential.validate cred ~trust ~now:1.0 with
  | Ok subject -> Alcotest.check dn "authenticates as the EEC" (Identity.subject id) subject
  | Error e -> Alcotest.failf "limited proxy failed authn: %s" (Credential.error_to_string e)

let test_empty_chain () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let cred = { Credential.chain = []; proof = ""; challenge = "c" } in
  match Credential.validate cred ~trust ~now:0.0 with
  | Error Credential.Empty_chain -> ()
  | _ -> Alcotest.fail "empty chain not rejected"

(* --- Gridmap ----------------------------------------------------------- *)

let gridmap_text =
  {|# grid-mapfile
"/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" keahey
"/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu" bliu,fusion
|}

let test_gridmap_parse_lookup () =
  let gm = Gridmap.parse gridmap_text in
  let kate = Dn.parse "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" in
  let bo = Dn.parse "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu" in
  let nobody = Dn.parse "/O=Grid/CN=Nobody" in
  Alcotest.(check (option string)) "kate" (Some "keahey") (Gridmap.lookup gm kate);
  Alcotest.(check (option string)) "bo primary" (Some "bliu") (Gridmap.lookup gm bo);
  Alcotest.(check bool) "mem" true (Gridmap.mem gm kate);
  Alcotest.(check bool) "not mem" false (Gridmap.mem gm nobody)

let test_gridmap_roundtrip () =
  let gm = Gridmap.parse gridmap_text in
  let gm' = Gridmap.parse (Gridmap.to_text gm) in
  Alcotest.(check int) "same entries" 2 (List.length (Gridmap.entries gm'));
  let kate = Dn.parse "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey" in
  Alcotest.(check (option string)) "lookup survives" (Some "keahey") (Gridmap.lookup gm' kate)

let test_gridmap_errors () =
  let bad text =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" text)
      true
      (try
         ignore (Gridmap.parse text);
         false
       with Gridmap.Parse_error _ -> true)
  in
  bad "/O=Grid/CN=X account";
  bad "\"/O=Grid/CN=X\"";
  bad "\"/O=Grid/CN=X";
  bad "\"not-a-dn\" account"

let test_gridmap_add () =
  let gm = Gridmap.add Gridmap.empty ~dn:(Dn.parse "/O=Grid/CN=New") ~account:"new" in
  Alcotest.(check (option string)) "added" (Some "new")
    (Gridmap.lookup gm (Dn.parse "/O=Grid/CN=New"))

(* --- Authentication ----------------------------------------------------- *)

let test_authn_handshake () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Peer" in
  let challenge = Authn.fresh_challenge () in
  match Authn.authenticate ~trust ~now:1.0 ~challenge (Credential.of_identity id ~challenge) with
  | Ok ctx -> Alcotest.check dn "peer" (Identity.subject id) ctx.Authn.peer
  | Error e -> Alcotest.failf "unexpected: %s" (Authn.error_to_string e)

let test_authn_challenge_binding () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let id = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Peer" in
  (* A credential bound to one challenge cannot answer another: replay
     protection. *)
  let cred = Credential.of_identity id ~challenge:"challenge-A" in
  match Authn.authenticate ~trust ~now:1.0 ~challenge:"challenge-B" cred with
  | Error Authn.Challenge_mismatch -> ()
  | Ok _ -> Alcotest.fail "replayed credential accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Authn.error_to_string e)

(* --- Credential renewal (MyProxy stand-in) ------------------------------- *)

let test_renewal_flow () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let kate = Identity.create ~ca ~now:0.0 ~lifetime:100000.0 "/O=Grid/CN=Kate" in
  let robot = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Renewal Robot" in
  let server = Renewal.create () in
  ignore (Renewal.deposit server ~identity:kate
    ~authorized_renewers:[ Identity.subject robot ]
    ~max_proxy_lifetime:500.0 ~now:0.0 ());
  (* The robot draws a fresh proxy at t=1000, well after Kate's original
     short proxy would have died. *)
  let robot_cred = Credential.of_identity robot ~challenge:"r1" in
  (match
     Renewal.renew server ~trust ~now:1000.0 ~owner:(Identity.subject kate) robot_cred
   with
  | Ok proxy ->
    Alcotest.(check bool) "acts as Kate" true
      (Dn.equal (Identity.effective_subject proxy) (Identity.subject kate));
    (match Credential.validate (Credential.of_identity proxy ~challenge:"c") ~trust ~now:1400.0 with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "fresh proxy invalid: %s" (Credential.error_to_string e));
    (* Lifetime capped by the deposit. *)
    (match Credential.validate (Credential.of_identity proxy ~challenge:"c2") ~trust ~now:1501.0 with
    | Error (Credential.Expired _) -> ()
    | _ -> Alcotest.fail "lifetime cap not applied")
  | Error e -> Alcotest.failf "renewal failed: %s" (Renewal.error_to_string e));
  Alcotest.(check int) "renewal counted" 1 (Renewal.renewals server)

let test_renewal_authorization () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let kate = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Kate" in
  let stranger = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Stranger" in
  let server = Renewal.create () in
  ignore (Renewal.deposit server ~identity:kate ~authorized_renewers:[] ~now:0.0 ());
  (* A stranger cannot renew... *)
  (match
     Renewal.renew server ~trust ~now:1.0 ~owner:(Identity.subject kate)
       (Credential.of_identity stranger ~challenge:"s")
   with
  | Error (Renewal.Renewer_not_authorized _) -> ()
  | _ -> Alcotest.fail "unauthorized renewal accepted");
  (* ...but self-renewal always works. *)
  (match
     Renewal.renew server ~trust ~now:1.0 ~owner:(Identity.subject kate)
       (Credential.of_identity kate ~challenge:"k")
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "self-renewal failed: %s" (Renewal.error_to_string e));
  (* No deposit: refused. *)
  match
    Renewal.renew server ~trust ~now:1.0 ~owner:(Identity.subject stranger)
      (Credential.of_identity stranger ~challenge:"s2")
  with
  | Error (Renewal.No_deposit _) -> ()
  | _ -> Alcotest.fail "renewal without deposit accepted"

let test_renewal_rejects_bad_credential_and_expired_escrow () =
  setup ();
  let ca = make_ca () in
  let trust = trust_of ca in
  let kate = Identity.create ~ca ~now:0.0 ~lifetime:50.0 "/O=Grid/CN=Kate" in
  let server = Renewal.create () in
  ignore (Renewal.deposit server ~identity:kate ~authorized_renewers:[] ~now:0.0 ());
  (* Rogue renewer credential. *)
  let rogue_ca = Ca.create ~now:0.0 "/O=Rogue/CN=CA" in
  let mallory = Identity.create ~ca:rogue_ca ~now:0.0 "/O=Grid/CN=Kate" in
  (match
     Renewal.renew server ~trust ~now:1.0 ~owner:(Identity.subject kate)
       (Credential.of_identity mallory ~challenge:"m")
   with
  | Error (Renewal.Renewer_authentication_failed _) -> ()
  | _ -> Alcotest.fail "rogue renewer accepted");
  (* The escrow itself expires at t=50; nothing can be drawn after. *)
  let late = Identity.create ~ca ~now:0.0 "/O=Grid/CN=Kate Two" in
  ignore (Renewal.deposit server ~identity:late ~authorized_renewers:[] ~now:0.0 ());
  ignore late;
  match
    Renewal.renew server ~trust ~now:60.0 ~owner:(Identity.subject kate)
      (Credential.of_identity kate ~challenge:"k")
  with
  | Error (Renewal.Renewer_authentication_failed _) (* kate's own cred also expired *)
  | Error (Renewal.Escrowed_credential_expired _) -> ()
  | _ -> Alcotest.fail "expired escrow honoured"

let qcheck_dn_roundtrip =
  let gen_dn =
    QCheck.Gen.(
      let component =
        pair
          (oneofl [ "O"; "OU"; "CN"; "C"; "L" ])
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
      in
      list_size (int_range 1 6) component
      |> map (fun comps ->
             String.concat ""
               (List.map (fun (a, v) -> Printf.sprintf "/%s=%s" a v) comps)))
  in
  QCheck.Test.make ~name:"dn parse/print round-trip" ~count:300
    (QCheck.make gen_dn ~print:(fun s -> s))
    (fun s -> Dn.to_string (Dn.parse s) = s)

let () =
  Alcotest.run "grid_gsi"
    [ ( "dn",
        [ Alcotest.test_case "roundtrip" `Quick test_dn_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_dn_parse_errors;
          Alcotest.test_case "prefix" `Quick test_dn_prefix;
          Alcotest.test_case "common name" `Quick test_dn_common_name;
          Alcotest.test_case "append" `Quick test_dn_append;
          QCheck_alcotest.to_alcotest qcheck_dn_roundtrip ] );
      ( "cert",
        [ Alcotest.test_case "ca self-signed" `Quick test_ca_self_signed;
          Alcotest.test_case "validity window" `Quick test_cert_validity_window;
          Alcotest.test_case "fingerprints" `Quick test_cert_fingerprint_changes;
          Alcotest.test_case "trust store kind check" `Quick test_trust_store_rejects_non_authority ] );
      ( "credential",
        [ Alcotest.test_case "validates" `Quick test_credential_validates;
          Alcotest.test_case "untrusted root" `Quick test_credential_untrusted_root;
          Alcotest.test_case "expired" `Quick test_credential_expired;
          Alcotest.test_case "proxy chain" `Quick test_proxy_chain_validates;
          Alcotest.test_case "deep delegation" `Quick test_deep_delegation;
          Alcotest.test_case "proxy expiry" `Quick test_proxy_expires_independently;
          Alcotest.test_case "possession proof" `Quick test_possession_proof_required;
          Alcotest.test_case "tampered chain" `Quick test_tampered_chain_rejected;
          Alcotest.test_case "revocation" `Quick test_revoked_certificate_rejected;
          Alcotest.test_case "revoked proxy only" `Quick test_revoked_proxy_only;
          Alcotest.test_case "limited proxies" `Quick test_limited_proxy_flag;
          Alcotest.test_case "empty chain" `Quick test_empty_chain ] );
      ( "gridmap",
        [ Alcotest.test_case "parse/lookup" `Quick test_gridmap_parse_lookup;
          Alcotest.test_case "roundtrip" `Quick test_gridmap_roundtrip;
          Alcotest.test_case "errors" `Quick test_gridmap_errors;
          Alcotest.test_case "add" `Quick test_gridmap_add ] );
      ( "authn",
        [ Alcotest.test_case "handshake" `Quick test_authn_handshake;
          Alcotest.test_case "challenge binding" `Quick test_authn_challenge_binding ] );
      ( "renewal",
        [ Alcotest.test_case "flow" `Quick test_renewal_flow;
          Alcotest.test_case "authorization" `Quick test_renewal_authorization;
          Alcotest.test_case "bad credential / expired escrow" `Quick
            test_renewal_rejects_bad_credential_and_expired_escrow ] ) ]
