(* Simulated asymmetric keypairs.

   Substitution (see DESIGN.md §4): the paper's GSI uses RSA/X.509. Offline
   we model a keypair as a secret signing key plus a public key identifier
   derived from it; verification requires the verifier to resolve the public
   key identifier to the secret through a trusted keystore — standing in for
   "the verifier trusts the CA's public key". The *shape* of the API (sign
   with private key, verify against public key) matches an asymmetric
   scheme, so the GSI code above it is structured exactly as it would be
   over RSA. *)

type public = { key_id : string }
type secret = { secret : string }

type t = { sk : secret; pk : public }

let generate ~seed_material =
  let secret = Sha256.digest ("keypair-secret:" ^ seed_material) in
  let public = { key_id = Sha256.digest_hex ("keypair-public:" ^ secret) } in
  { sk = { secret }; pk = public }

let public t = t.pk
let secret t = t.sk

let sign (sk : secret) msg = Hmac.sha256_hex ~key:sk.secret msg

(* The keystore: public-key-id -> secret. Verification looks the signer up
   here, modelling possession of the signer's trusted public key. *)
let keystore : (string, string) Hashtbl.t = Hashtbl.create 64

let register t = Hashtbl.replace keystore t.pk.key_id t.sk.secret

let verify (pk : public) ~signature msg =
  match Hashtbl.find_opt keystore pk.key_id with
  | None -> false
  | Some secret -> String.equal signature (Hmac.sha256_hex ~key:secret msg)

let reset_keystore () = Hashtbl.reset keystore

let pp_public ppf (pk : public) =
  Fmt.pf ppf "pub:%s" (String.sub pk.key_id 0 (min 12 (String.length pk.key_id)))

