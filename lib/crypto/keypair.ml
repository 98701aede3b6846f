(* Simulated asymmetric keypairs.

   Substitution (see DESIGN.md §4): the paper's GSI uses RSA/X.509. Offline
   we model a keypair as a secret signing key plus a public key identifier
   derived from it; verification requires the verifier to resolve the public
   key identifier to the secret through a trusted keystore — standing in for
   "the verifier trusts the CA's public key". The *shape* of the API (sign
   with private key, verify against public key) matches an asymmetric
   scheme, so the GSI code above it is structured exactly as it would be
   over RSA. The secret is held as a prepared HMAC key, so signing and
   verifying never re-hash the key's padded blocks. *)

type public = { key_id : string }
type secret = Hmac.key

type t = { sk : secret; pk : public }

let generate ~seed_material =
  let secret = Sha256.digest ("keypair-secret:" ^ seed_material) in
  let public = { key_id = Sha256.digest_hex ("keypair-public:" ^ secret) } in
  { sk = Hmac.prepare secret; pk = public }

let public t = t.pk
let secret t = t.sk

let sign (sk : secret) msg = Hex.encode (Hmac.mac sk msg)

(* The keystore: public-key-id -> secret. Verification looks the signer up
   here, modelling possession of the signer's trusted public key. *)
let keystore : (string, secret) Hashtbl.t = Hashtbl.create 64

let register t = Hashtbl.replace keystore t.pk.key_id t.sk

let verify (pk : public) ~signature msg =
  match Hashtbl.find_opt keystore pk.key_id with
  | None -> false
  | Some sk -> Hmac.equal signature (sign sk msg)

let is_registered (pk : public) = Hashtbl.mem keystore pk.key_id

let reset_keystore () = Hashtbl.reset keystore

let equal_public (a : public) (b : public) = String.equal a.key_id b.key_id

let add_key_id buf (pk : public) =
  Buffer.add_string buf "pub:";
  Buffer.add_string buf pk.key_id
