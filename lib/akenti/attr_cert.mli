(** Akenti-style attribute certificates: signed (subject, attribute,
    value) assertions from attribute authorities. *)

type t = {
  subject : Grid_gsi.Dn.t;
  attribute : string;
  value : string;
  issuer : Grid_gsi.Dn.t;
  not_before : Grid_sim.Clock.time;
  not_after : Grid_sim.Clock.time;
  signature : string;
}

val make :
  subject:Grid_gsi.Dn.t ->
  attribute:string ->
  value:string ->
  issuer:Grid_gsi.Dn.t ->
  not_before:Grid_sim.Clock.time ->
  not_after:Grid_sim.Clock.time ->
  signing_key:Grid_crypto.Keypair.secret ->
  t

val verify : t -> issuer_key:Grid_crypto.Keypair.public -> now:Grid_sim.Clock.time -> bool
