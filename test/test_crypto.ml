(* Tests for grid_crypto: SHA-256 against FIPS vectors, HMAC against RFC
   4231 vectors, hex/base64 round-trips, simulated keypair semantics. *)

open Grid_crypto

(* --- SHA-256: FIPS 180-4 / NIST test vectors ----------------------- *)

let sha_vector msg expected () =
  Alcotest.(check string) msg expected (Sha256.digest_hex msg)

let test_sha_empty () =
  Alcotest.(check string) "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex "")

let test_sha_abc () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex "abc")

let test_sha_two_blocks () =
  Alcotest.(check string) "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha_million_a () =
  Alcotest.(check string) "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

let test_sha_length_edge () =
  (* 55 and 56 bytes straddle the single-block padding boundary. *)
  let d55 = Sha256.digest (String.make 55 'x') in
  let d56 = Sha256.digest (String.make 56 'x') in
  Alcotest.(check int) "digest length" 32 (String.length d55);
  Alcotest.(check int) "digest length" 32 (String.length d56);
  Alcotest.(check bool) "distinct" false (String.equal d55 d56)

(* --- HMAC-SHA-256: RFC 4231 ---------------------------------------- *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.sha256_hex ~key "Hi There")

let test_hmac_rfc4231_case2 () =
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.sha256_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let data = String.make 50 '\xdd' in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.sha256_hex ~key data)

let test_hmac_long_key () =
  (* RFC 4231 case 6: 131-byte key is hashed down first. *)
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.sha256_hex ~key "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let mac = Hmac.sha256 ~key:"k" "msg" in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key:"k" ~mac "msg");
  Alcotest.(check bool) "rejects wrong message" false (Hmac.verify ~key:"k" ~mac "msg2");
  Alcotest.(check bool) "rejects wrong key" false (Hmac.verify ~key:"k2" ~mac "msg");
  Alcotest.(check bool) "rejects truncated mac" false
    (Hmac.verify ~key:"k" ~mac:(String.sub mac 0 16) "msg")

(* --- Hex / Base64 --------------------------------------------------- *)

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.decode "00ff10");
  Alcotest.(check string) "decode uppercase" "\xab" (Hex.decode "AB")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: not a hex digit")
    (fun () -> ignore (Hex.decode "zz"))

let test_base64_known () =
  (* RFC 4648 vectors. *)
  Alcotest.(check string) "f" "Zg==" (Base64.encode "f");
  Alcotest.(check string) "fo" "Zm8=" (Base64.encode "fo");
  Alcotest.(check string) "foo" "Zm9v" (Base64.encode "foo");
  Alcotest.(check string) "foob" "Zm9vYg==" (Base64.encode "foob");
  Alcotest.(check string) "fooba" "Zm9vYmE=" (Base64.encode "fooba");
  Alcotest.(check string) "foobar" "Zm9vYmFy" (Base64.encode "foobar");
  Alcotest.(check string) "empty" "" (Base64.encode "")

let test_base64_decode () =
  Alcotest.(check string) "round known" "foobar" (Base64.decode "Zm9vYmFy");
  Alcotest.(check string) "padded 1" "fooba" (Base64.decode "Zm9vYmE=");
  Alcotest.(check string) "padded 2" "foob" (Base64.decode "Zm9vYg==")

(* --- Keypairs -------------------------------------------------------- *)

let test_keypair_sign_verify () =
  Keypair.reset_keystore ();
  let kp = Keypair.generate ~seed_material:"alice" in
  Keypair.register kp;
  let signature = Keypair.sign (Keypair.secret kp) "hello" in
  Alcotest.(check bool) "verifies" true
    (Keypair.verify (Keypair.public kp) ~signature "hello");
  Alcotest.(check bool) "tampered message" false
    (Keypair.verify (Keypair.public kp) ~signature "hellp");
  Alcotest.(check bool) "tampered signature" false
    (Keypair.verify (Keypair.public kp) ~signature:(String.map (fun _ -> '0') signature)
       "hello")

let test_keypair_unregistered () =
  Keypair.reset_keystore ();
  let kp = Keypair.generate ~seed_material:"bob" in
  let signature = Keypair.sign (Keypair.secret kp) "m" in
  Alcotest.(check bool) "unknown key never verifies" false
    (Keypair.verify (Keypair.public kp) ~signature "m")

let test_keypair_cross () =
  Keypair.reset_keystore ();
  let a = Keypair.generate ~seed_material:"a" in
  let b = Keypair.generate ~seed_material:"b" in
  Keypair.register a;
  Keypair.register b;
  let signature = Keypair.sign (Keypair.secret a) "m" in
  Alcotest.(check bool) "b cannot claim a's signature" false
    (Keypair.verify (Keypair.public b) ~signature "m")

let test_keypair_deterministic () =
  let a = Keypair.generate ~seed_material:"same" in
  let b = Keypair.generate ~seed_material:"same" in
  Keypair.register a;
  let signature = Keypair.sign (Keypair.secret a) "m" in
  Alcotest.(check bool) "same seed, same key" true
    (Keypair.verify (Keypair.public b) ~signature "m")

(* --- Properties ------------------------------------------------------ *)

let qcheck_hex_roundtrip =
  QCheck.Test.make ~name:"hex round-trip" ~count:500 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

let qcheck_base64_roundtrip =
  QCheck.Test.make ~name:"base64 round-trip" ~count:500 QCheck.string (fun s ->
      Base64.decode (Base64.encode s) = s)

let qcheck_sha_injective_on_samples =
  QCheck.Test.make ~name:"sha256 distinguishes distinct strings" ~count:300
    QCheck.(pair string string)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let qcheck_sha_length =
  QCheck.Test.make ~name:"sha256 digest is 32 bytes" ~count:200 QCheck.string (fun s ->
      String.length (Sha256.digest s) = 32)

let () =
  ignore sha_vector;
  Alcotest.run "grid_crypto"
    [ ( "sha256",
        [ Alcotest.test_case "empty" `Quick test_sha_empty;
          Alcotest.test_case "abc" `Quick test_sha_abc;
          Alcotest.test_case "two blocks" `Quick test_sha_two_blocks;
          Alcotest.test_case "million a" `Slow test_sha_million_a;
          Alcotest.test_case "padding boundary" `Quick test_sha_length_edge;
          QCheck_alcotest.to_alcotest qcheck_sha_injective_on_samples;
          QCheck_alcotest.to_alcotest qcheck_sha_length ] );
      ( "hmac",
        [ Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case 6 (long key)" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify ] );
      ( "encodings",
        [ Alcotest.test_case "hex known" `Quick test_hex_known;
          Alcotest.test_case "hex errors" `Quick test_hex_errors;
          Alcotest.test_case "base64 known" `Quick test_base64_known;
          Alcotest.test_case "base64 decode" `Quick test_base64_decode;
          QCheck_alcotest.to_alcotest qcheck_hex_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_base64_roundtrip ] );
      ( "keypair",
        [ Alcotest.test_case "sign/verify" `Quick test_keypair_sign_verify;
          Alcotest.test_case "unregistered" `Quick test_keypair_unregistered;
          Alcotest.test_case "cross-key" `Quick test_keypair_cross;
          Alcotest.test_case "deterministic" `Quick test_keypair_deterministic ] ) ]
