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

(* Digests at every length where padding or block handling changes:
   empty, the last one-block length (55), the first two-block one (56),
   block edges (63, 64, 65), the same edges one block on (119, 120, 128),
   and a long message. Byte [i] of the message is [(7i + 3) mod 256].
   Expected values come from Python's hashlib, an oracle independent of
   this implementation. *)
let patterned n = String.init n (fun i -> Char.chr (((7 * i) + 3) mod 256))

let sha_lengths =
  [ (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5");
    (55, "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b");
    (56, "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27");
    (63, "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055");
    (64, "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241");
    (65, "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e");
    (119, "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e");
    (120, "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5");
    (128, "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6");
    (1000, "1e9bc38cbf860b9ec31918b065f9b52476c549a782e0e7990bed8ce3868d2371") ]

let test_sha_lengths () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check string) (Printf.sprintf "%d bytes" n) expected
        (Sha256.digest_hex (patterned n)))
    sha_lengths

(* A context resumed from a midstate finishes like the one it came from;
   a midstate exists only on a block boundary. *)
let test_sha_midstate () =
  let msg = patterned 200 in
  let ctx = Sha256.init () in
  Sha256.feed ctx (String.sub msg 0 128);
  let resumed = Sha256.resume ("xx" ^ Sha256.midstate ctx) ~off:2 ~blocks:2 in
  Sha256.feed resumed (String.sub msg 128 72);
  Alcotest.(check string) "resumed" (Sha256.digest msg) (Sha256.finish resumed);
  Sha256.feed ctx "x";
  Alcotest.check_raises "mid-block"
    (Invalid_argument "Sha256.midstate: not on a block boundary") (fun () ->
      ignore (Sha256.midstate ctx))

(* [feed] in random chunks, then [finish], equals the one-shot digest. *)
let qcheck_sha_chunked_feed =
  let gen =
    QCheck.Gen.(
      pair (string_size (int_range 0 300)) (list_size (int_range 0 8) (int_range 0 130)))
  in
  QCheck.Test.make ~name:"chunked feed = digest" ~count:500
    (QCheck.make ~print:(fun (s, cuts) ->
         Printf.sprintf "%d bytes, cuts %s" (String.length s)
           (String.concat "," (List.map string_of_int cuts)))
       gen)
    (fun (s, cuts) ->
      let ctx = Sha256.init () in
      let rest =
        List.fold_left
          (fun pos cut ->
            let cut = min cut (String.length s - pos) in
            Sha256.feed ctx (String.sub s pos cut);
            pos + cut)
          0 cuts
      in
      Sha256.feed ctx (String.sub s rest (String.length s - rest));
      Sha256.finish ctx = Sha256.digest s)

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

(* Key lengths around the block size (63, 64, 65), a key hashed down
   first (131) and the degenerate empty key. Byte [i] of the key is
   [(13i + 1) mod 256]. Expected values from Python's hmac module. *)
let hmac_key n = String.init n (fun i -> Char.chr (((13 * i) + 1) mod 256))
let hmac_msg = "The quick brown fox jumps over the lazy dog"

let hmac_key_lengths =
  [ (0, "fb011e6154a19b9a4c767373c305275a5a69e8b68b0b4c9200c383dced19a416");
    (1, "25e108dd06a9b25a000762e016b85c1c01c125f74bb728862b6d31c417a1f9e8");
    (32, "4873e3cb9f3074c563c5f1d23045bdf2b5da245fd9a70040de2d43a367db05c8");
    (63, "2e9f09a7db28270127c0d05585d9dc4cc3c0ed5878c5aa6d800b7f6e8be80ade");
    (64, "b20a64c64667ef3282f5e5825c87eda2092d0e4eaef60aafd4efb153215dd03f");
    (65, "286732689aaef6bd34f443ce5b8bdbd1244ce0120e6a8b3e821369c6d17a8470");
    (131, "89b41e7d3a835dd3e179c8791a8b601315b00ddd3ad92d35744f5a200551f684") ]

let test_hmac_key_lengths () =
  List.iter
    (fun (n, expected) ->
      let key = hmac_key n in
      Alcotest.(check string) (Printf.sprintf "%d-byte key" n) expected
        (Hmac.sha256_hex ~key hmac_msg);
      Alcotest.(check string) (Printf.sprintf "%d-byte key, prepared" n) expected
        (Hex.encode (Hmac.mac (Hmac.prepare key) hmac_msg)))
    hmac_key_lengths

let qcheck_hmac_prepared =
  QCheck.Test.make ~name:"mac (prepare key) = sha256 ~key" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 140)) (string_of_size (Gen.int_range 0 200)))
    (fun (key, msg) -> Hmac.mac (Hmac.prepare key) msg = Hmac.sha256 ~key msg)

let test_hmac_equal () =
  Alcotest.(check bool) "equal" true (Hmac.equal "abc" "abc");
  Alcotest.(check bool) "last byte differs" false (Hmac.equal "abc" "abd");
  Alcotest.(check bool) "prefix" false (Hmac.equal "ab" "abc");
  Alcotest.(check bool) "empty" true (Hmac.equal "" "")

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
          QCheck_alcotest.to_alcotest qcheck_sha_length;
          Alcotest.test_case "block-edge lengths" `Quick test_sha_lengths;
          Alcotest.test_case "midstate and resume" `Quick test_sha_midstate;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 32 |])
            qcheck_sha_chunked_feed ] );
      ( "hmac",
        [ Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case 6 (long key)" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "key lengths" `Quick test_hmac_key_lengths;
          Alcotest.test_case "constant-time equal" `Quick test_hmac_equal;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4231 |])
            qcheck_hmac_prepared ] );
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
