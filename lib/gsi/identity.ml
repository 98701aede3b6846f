(* Principals: a keypair plus the certificate a CA issued for it.

   An identity can delegate by issuing a proxy certificate: a fresh keypair
   whose certificate is signed by the delegator's key and whose subject
   extends the delegator's DN with "CN=proxy" — the GSI impersonation-proxy
   scheme. Chains of any depth arise from proxies delegating further. *)

type t = {
  subject : Dn.t;
  keypair : Grid_crypto.Keypair.t;
  certificate : Cert.t;
  (* Certificates above this one, leaf-to-root order, excluding the CA
     certificate itself: empty for an end entity, ancestors for a proxy. *)
  parents : Cert.t list;
}

let create ~(ca : Ca.t) ~now ?lifetime subject_string =
  let subject = Dn.parse subject_string in
  let keypair = Grid_crypto.Keypair.generate ~seed_material:("identity:" ^ subject_string) in
  Grid_crypto.Keypair.register keypair;
  let certificate =
    Ca.issue ?lifetime ca ~now ~subject ~public_key:(Grid_crypto.Keypair.public keypair)
  in
  { subject; keypair; certificate; parents = [] }

let subject t = t.subject
let certificate t = t.certificate
let chain t = t.certificate :: t.parents
let secret_key t = Grid_crypto.Keypair.secret t.keypair

(* Effective identity: proxies act as the end entity whose DN is the
   longest non-proxy prefix — i.e. the subject of the last End_entity
   certificate in the chain. *)
let effective_subject t =
  let rec find_eec = function
    | [] -> t.subject
    | (c : Cert.t) :: rest -> if c.kind = Cert.End_entity then c.subject else find_eec rest
  in
  find_eec (chain t)

(* GSI distinguishes full impersonation proxies from *limited* proxies
   ("CN=limited proxy"): a limited proxy authenticates its holder but
   services refuse to start jobs with it — the classic protection for
   credentials that ride along with a job and could leak from a worker
   node. *)
let limited_proxy_cn = "limited proxy"

let delegate ?(lifetime = Grid_sim.Clock.hours 12.0) ?(extensions = []) ?(limited = false)
    t ~now =
  let cn = if limited then limited_proxy_cn else "proxy" in
  let proxy_subject = Dn.append t.subject ~attr:"CN" ~value:cn in
  let seed =
    Printf.sprintf "proxy:%s:%d" (Dn.to_string proxy_subject) (List.length t.parents)
  in
  let keypair = Grid_crypto.Keypair.generate ~seed_material:seed in
  Grid_crypto.Keypair.register keypair;
  let certificate =
    Cert.make ~kind:Cert.Proxy ~subject:proxy_subject ~issuer:t.subject
      ~public_key:(Grid_crypto.Keypair.public keypair) ~not_before:now
      ~not_after:(Grid_sim.Clock.add now lifetime) ~extensions
      ~signing_key:(Grid_crypto.Keypair.secret t.keypair)
  in
  { subject = proxy_subject; keypair; certificate; parents = chain t }

let is_limited t =
  List.exists
    (fun (c : Cert.t) ->
      c.Cert.kind = Cert.Proxy && Dn.common_name c.Cert.subject = Some limited_proxy_cn)
    (chain t)
