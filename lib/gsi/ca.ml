(* Certificate authorities.

   A CA holds a keypair and a self-signed Authority certificate, and issues
   End_entity certificates. Verifiers hold a set of trusted CA certificates
   (the "trusted certificates directory" of a real GSI installation). *)

type t = {
  name : Dn.t;
  keypair : Grid_crypto.Keypair.t;
  certificate : Cert.t;
  default_lifetime : Grid_sim.Clock.time;
}

let create ?(lifetime = Grid_sim.Clock.hours 24.0) ?(default_identity_lifetime = Grid_sim.Clock.hours 12.0)
    ~now name_string =
  let name = Dn.parse name_string in
  let keypair = Grid_crypto.Keypair.generate ~seed_material:("ca:" ^ name_string) in
  Grid_crypto.Keypair.register keypair;
  let certificate =
    Cert.make ~kind:Cert.Authority ~subject:name ~issuer:name
      ~public_key:(Grid_crypto.Keypair.public keypair) ~not_before:now
      ~not_after:(Grid_sim.Clock.add now lifetime) ~extensions:[]
      ~signing_key:(Grid_crypto.Keypair.secret keypair)
  in
  { name; keypair; certificate; default_lifetime = default_identity_lifetime }

let certificate t = t.certificate
let issue ?lifetime t ~now ~subject ~public_key =
  let lifetime = Option.value lifetime ~default:t.default_lifetime in
  Cert.make ~kind:Cert.End_entity ~subject ~issuer:t.name ~public_key ~not_before:now
    ~not_after:(Grid_sim.Clock.add now lifetime) ~extensions:[]
    ~signing_key:(Grid_crypto.Keypair.secret t.keypair)

module Trust_store = struct
  (* Trust anchors plus a certificate revocation list. Real GSI
     installations keep CRL files beside the trusted certificates
     directory; here revocation is by serial number, checked during
     chain validation.

     [verified] maps each certificate whose signature check passed to
     the issuer key it passed under (see the interface for why the key
     is the record itself). *)
  module Verified = Hashtbl.Make (struct
    type t = Cert.t

    let equal (a : Cert.t) b = a == b || a = b

    (* The signature alone spreads certificates; hashing the subject DN
       too would cost a string hash per component on every miss. *)
    let hash (c : Cert.t) = (c.Cert.serial * 31) + Hashtbl.hash c.Cert.signature
  end)

  (* Cleared when full. A verifier that meets few identities (a site's
     users) keeps them all; one that meets a fresh identity per request
     gains nothing from a larger table and would only retain more. *)
  let verified_bound = 16

  type store = {
    mutable anchors : Cert.t list;
    revoked : (int, unit) Hashtbl.t;
    verified : Grid_crypto.Keypair.public Verified.t;
  }

  let create () =
    { anchors = []; revoked = Hashtbl.create 8; verified = Verified.create verified_bound }

  let add store cert =
    if cert.Cert.kind <> Cert.Authority then
      invalid_arg "Trust_store.add: only Authority certificates can be anchors";
    if not (List.exists (fun c -> Cert.fingerprint c = Cert.fingerprint cert) store.anchors)
    then begin
      store.anchors <- cert :: store.anchors;
      Verified.clear store.verified
    end

  let find store ~issuer =
    List.find_opt (fun c -> Dn.equal c.Cert.subject issuer) store.anchors

  let revoke store (cert : Cert.t) = Hashtbl.replace store.revoked cert.Cert.serial ()

  let revoke_serial store serial = Hashtbl.replace store.revoked serial ()

  let is_revoked store (cert : Cert.t) = Hashtbl.mem store.revoked cert.Cert.serial

  let verify_signature store cert ~issuer_key =
    match Verified.find_opt store.verified cert with
    | Some key when Grid_crypto.Keypair.equal_public key issuer_key ->
      (* A key dropped from the keystore verifies nothing, memo or not. *)
      Grid_crypto.Keypair.is_registered issuer_key
    | Some _ | None ->
      Cert.verify_signature cert ~issuer_key
      && begin
        if Verified.length store.verified >= verified_bound then
          Verified.clear store.verified;
        Verified.replace store.verified cert issuer_key;
        true
      end
end
