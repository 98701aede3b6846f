(* Akenti-style attribute certificates.

   An attribute authority asserts that a subject holds an attribute
   (e.g. group=fusion-analysts, role=vo-admin). Use-conditions name the
   attributes a user must hold; the Akenti engine gathers a user's
   attribute certificates from its stores and checks them against the
   conditions. *)

type t = {
  subject : Grid_gsi.Dn.t;
  attribute : string;
  value : string;
  issuer : Grid_gsi.Dn.t;
  not_before : Grid_sim.Clock.time;
  not_after : Grid_sim.Clock.time;
  signature : string;
}

let signing_bytes ~subject ~attribute ~value ~issuer ~not_before ~not_after =
  Printf.sprintf "akenti-attr|%s|%s|%s|%s|%.6f|%.6f"
    (Grid_gsi.Dn.to_string subject)
    attribute value
    (Grid_gsi.Dn.to_string issuer)
    not_before not_after

let make ~subject ~attribute ~value ~issuer ~not_before ~not_after ~signing_key =
  let body = signing_bytes ~subject ~attribute ~value ~issuer ~not_before ~not_after in
  { subject; attribute; value; issuer; not_before; not_after;
    signature = Grid_crypto.Keypair.sign signing_key body }

let verify t ~issuer_key ~now =
  t.not_before <= now && now <= t.not_after
  && Grid_crypto.Keypair.verify issuer_key ~signature:t.signature
       (signing_bytes ~subject:t.subject ~attribute:t.attribute ~value:t.value
          ~issuer:t.issuer ~not_before:t.not_before ~not_after:t.not_after)
