(* Presented credentials and their validation.

   A credential is what travels with a request: the presenter's certificate
   chain plus a proof of possession (a signature over a verifier-chosen
   challenge with the leaf key). Validation walks the chain exactly as a
   GSI verifier would:

     1. every certificate is inside its validity window;
     2. each certificate's signature verifies under its parent's key
        (the chain's own parent, or a trusted CA for the chain root);
     3. issuer/subject names chain correctly;
     4. proxy certificates extend their issuer's DN ("CN=proxy"), and only
        proxies may be issued by non-authorities;
     5. the proof of possession verifies under the leaf public key. *)

type t = {
  chain : Cert.t list; (* leaf first *)
  proof : string;      (* signature over [challenge] by the leaf key *)
  challenge : string;
}

type error =
  | Empty_chain
  | Expired of Dn.t
  | Bad_signature of Dn.t
  | Broken_chain of { child : Dn.t; claimed_issuer : Dn.t }
  | Untrusted_root of Dn.t
  | Bad_proxy_name of Dn.t
  | Revoked of Dn.t
  | Bad_possession_proof

let error_to_string = function
  | Empty_chain -> "empty certificate chain"
  | Expired dn -> "certificate expired: " ^ Dn.to_string dn
  | Bad_signature dn -> "bad certificate signature: " ^ Dn.to_string dn
  | Broken_chain { child; claimed_issuer } ->
    Printf.sprintf "broken chain: %s claims issuer %s" (Dn.to_string child)
      (Dn.to_string claimed_issuer)
  | Untrusted_root dn -> "untrusted root issuer: " ^ Dn.to_string dn
  | Bad_proxy_name dn -> "proxy subject does not extend issuer: " ^ Dn.to_string dn
  | Revoked dn -> "certificate revoked: " ^ Dn.to_string dn
  | Bad_possession_proof -> "proof of possession failed"

let of_identity (id : Identity.t) ~challenge =
  { chain = Identity.chain id;
    proof = Grid_crypto.Keypair.sign (Identity.secret_key id) challenge;
    challenge }

let leaf t = List.nth_opt t.chain 0

let subject t =
  match leaf t with
  | Some c -> c.Cert.subject
  | None -> []

(* The grid identity the credential asserts: subject of the last
   End_entity certificate, falling back to the leaf subject. *)
let effective_subject t =
  let rec find_eec fallback = function
    | [] -> fallback
    | (c : Cert.t) :: rest ->
      if c.Cert.kind = Cert.End_entity then c.Cert.subject else find_eec fallback rest
  in
  find_eec (subject t) t.chain

let validate (t : t) ~(trust : Ca.Trust_store.store) ~now =
  let rec walk = function
    | [] -> Error Empty_chain
    | [ (root : Cert.t) ] -> begin
      (* Chain root: must be vouched for by a trusted CA. *)
      match Ca.Trust_store.find trust ~issuer:root.Cert.issuer with
      | None -> Error (Untrusted_root root.Cert.issuer)
      | Some anchor ->
        if not (Cert.valid_at anchor ~now) then Error (Expired anchor.Cert.subject)
        else if not (Cert.verify_signature root ~issuer_key:anchor.Cert.public_key) then
          Error (Bad_signature root.Cert.subject)
        else Ok ()
    end
    | (child : Cert.t) :: (parent : Cert.t) :: rest ->
      if not (Dn.equal child.Cert.issuer parent.Cert.subject) then
        Error (Broken_chain { child = child.Cert.subject; claimed_issuer = child.Cert.issuer })
      else if not (Cert.verify_signature child ~issuer_key:parent.Cert.public_key) then
        Error (Bad_signature child.Cert.subject)
      else if
        child.Cert.kind = Cert.Proxy && not (Dn.is_prefix parent.Cert.subject child.Cert.subject)
      then Error (Bad_proxy_name child.Cert.subject)
      else walk (parent :: rest)
  in
  let expired = List.find_opt (fun c -> not (Cert.valid_at c ~now)) t.chain in
  let revoked = List.find_opt (Ca.Trust_store.is_revoked trust) t.chain in
  match (t.chain, expired, revoked) with
  | [], _, _ -> Error Empty_chain
  | _, Some c, _ -> Error (Expired c.Cert.subject)
  | _, None, Some c -> Error (Revoked c.Cert.subject)
  | leaf :: _, None, None -> begin
    match walk t.chain with
    | Error _ as e -> e
    | Ok () ->
      if
        Grid_crypto.Keypair.verify leaf.Cert.public_key ~signature:t.proof t.challenge
      then Ok (effective_subject t)
      else Error Bad_possession_proof
  end

(* Limitation is chain-inherited: any limited proxy anywhere taints the
   whole credential. *)
let is_limited t =
  List.exists
    (fun (c : Cert.t) ->
      c.Cert.kind = Cert.Proxy
      && Dn.common_name c.Cert.subject = Some Identity.limited_proxy_cn)
    t.chain

let delegation_depth t =
  List.length (List.filter (fun (c : Cert.t) -> c.Cert.kind = Cert.Proxy) t.chain)
