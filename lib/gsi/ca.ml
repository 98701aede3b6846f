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
     chain validation. *)
  type store = {
    mutable anchors : Cert.t list;
    revoked : (int, unit) Hashtbl.t;
  }

  let create () = { anchors = []; revoked = Hashtbl.create 8 }

  let add store cert =
    if cert.Cert.kind <> Cert.Authority then
      invalid_arg "Trust_store.add: only Authority certificates can be anchors";
    if not (List.exists (fun c -> Cert.fingerprint c = Cert.fingerprint cert) store.anchors)
    then store.anchors <- cert :: store.anchors

  let find store ~issuer =
    List.find_opt (fun c -> Dn.equal c.Cert.subject issuer) store.anchors

  let revoke store (cert : Cert.t) = Hashtbl.replace store.revoked cert.Cert.serial ()

  let revoke_serial store serial = Hashtbl.replace store.revoked serial ()

  let is_revoked store (cert : Cert.t) = Hashtbl.mem store.revoked cert.Cert.serial
end
