(* Certificates.

   A certificate binds a subject DN to a public key under an issuer's
   signature, with a validity window and a bag of extensions. Proxy
   certificates and CAS capability credentials are ordinary certificates
   with distinguishing extensions, mirroring how GSI piggybacks on X.509. *)

type kind =
  | End_entity        (* a user or service identity certificate *)
  | Authority         (* a CA certificate (self-signed) *)
  | Proxy             (* a delegated proxy certificate *)

type extension = { oid : string; critical : bool; payload : string }

type t = {
  serial : int;
  kind : kind;
  subject : Dn.t;
  issuer : Dn.t;
  public_key : Grid_crypto.Keypair.public;
  not_before : Grid_sim.Clock.time;
  not_after : Grid_sim.Clock.time;
  extensions : extension list;
  signature : string;
}

let kind_to_string = function
  | End_entity -> "end-entity"
  | Authority -> "authority"
  | Proxy -> "proxy"

(* Canonical byte encoding of the to-be-signed portion. Any change to a
   field changes these bytes, so a tampered certificate fails verification. *)
let to_signing_bytes ~serial ~kind ~subject ~issuer ~public_key_id ~not_before ~not_after
    ~extensions =
  let ext_bytes =
    Grid_util.Strings.concat_map ";"
      (fun e ->
        Printf.sprintf "%s:%b:%s" e.oid e.critical (Grid_crypto.Base64.encode e.payload))
      extensions
  in
  Printf.sprintf "cert|%d|%s|%s|%s|%s|%.6f|%.6f|%s" serial (kind_to_string kind)
    (Dn.to_string subject) (Dn.to_string issuer) public_key_id not_before not_after ext_bytes

let signing_bytes t =
  (* Re-derive the key id through the same canonical form used at issuance:
     the public key's identity is its registered key id. *)
  to_signing_bytes ~serial:t.serial ~kind:t.kind ~subject:t.subject ~issuer:t.issuer
    ~public_key_id:(Fmt.to_to_string Grid_crypto.Keypair.pp_public t.public_key)
    ~not_before:t.not_before ~not_after:t.not_after ~extensions:t.extensions

let serial_counter = ref 0

let make ~kind ~subject ~issuer ~public_key ~not_before ~not_after ~extensions
    ~(signing_key : Grid_crypto.Keypair.secret) =
  incr serial_counter;
  let serial = !serial_counter in
  let body =
    to_signing_bytes ~serial ~kind ~subject ~issuer
      ~public_key_id:(Fmt.to_to_string Grid_crypto.Keypair.pp_public public_key)
      ~not_before ~not_after ~extensions
  in
  { serial; kind; subject; issuer; public_key; not_before; not_after; extensions;
    signature = Grid_crypto.Keypair.sign signing_key body }

let verify_signature t ~issuer_key =
  Grid_crypto.Keypair.verify issuer_key ~signature:t.signature (signing_bytes t)

let valid_at t ~now = t.not_before <= now && now <= t.not_after

let find_extension t oid = List.find_opt (fun e -> e.oid = oid) t.extensions

let fingerprint t = Grid_crypto.Sha256.digest_hex (signing_bytes t ^ t.signature)
