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

(* The runtime primitive behind [Printf]'s float conversions: the same bytes
   as [Printf.sprintf "%.17g"], without interpreting a format each call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Canonical byte encoding of the to-be-signed portion. Any change to a
   field changes these bytes, so a tampered certificate fails verification:
   the public key is rendered by its full id and times by 17 significant
   digits, which name every double exactly. They are re-rendered on every
   verification, never stored: a record copied with one field changed must
   not carry the old bytes along. *)
let to_signing_bytes ~serial ~kind ~subject ~issuer ~public_key ~not_before ~not_after
    ~extensions =
  let buf = Buffer.create 256 in
  let field add x =
    Buffer.add_char buf '|';
    add buf x
  in
  let time buf x = Buffer.add_string buf (format_float "%.17g" x) in
  Buffer.add_string buf "cert";
  field Buffer.add_string (string_of_int serial);
  field Buffer.add_string (kind_to_string kind);
  field Dn.add_to_buffer subject;
  field Dn.add_to_buffer issuer;
  field Grid_crypto.Keypair.add_key_id public_key;
  field time not_before;
  field time not_after;
  Buffer.add_char buf '|';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ';';
      Buffer.add_string buf e.oid;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_bool e.critical);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Grid_crypto.Base64.encode e.payload))
    extensions;
  Buffer.contents buf

let signing_bytes t =
  to_signing_bytes ~serial:t.serial ~kind:t.kind ~subject:t.subject ~issuer:t.issuer
    ~public_key:t.public_key ~not_before:t.not_before ~not_after:t.not_after
    ~extensions:t.extensions

let serial_counter = ref 0

let make ~kind ~subject ~issuer ~public_key ~not_before ~not_after ~extensions
    ~(signing_key : Grid_crypto.Keypair.secret) =
  incr serial_counter;
  let serial = !serial_counter in
  let body =
    to_signing_bytes ~serial ~kind ~subject ~issuer ~public_key ~not_before ~not_after
      ~extensions
  in
  { serial; kind; subject; issuer; public_key; not_before; not_after; extensions;
    signature = Grid_crypto.Keypair.sign signing_key body }

let verify_signature t ~issuer_key =
  Grid_crypto.Keypair.verify issuer_key ~signature:t.signature (signing_bytes t)

let valid_at t ~now = t.not_before <= now && now <= t.not_after

let find_extension t oid = List.find_opt (fun e -> e.oid = oid) t.extensions

let fingerprint t = Grid_crypto.Sha256.digest_hex (signing_bytes t ^ t.signature)
