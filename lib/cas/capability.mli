(** CAS capability credentials: signed policy subsets carried by users
    (the push model). *)

type t = {
  holder : Grid_gsi.Dn.t;
  vo : string;
  policy_text : string;
  issued_at : Grid_sim.Clock.time;
  not_after : Grid_sim.Clock.time;
  signature : string;
}

val make :
  holder:Grid_gsi.Dn.t ->
  vo:string ->
  policy_text:string ->
  issued_at:Grid_sim.Clock.time ->
  not_after:Grid_sim.Clock.time ->
  signing_key:Grid_crypto.Keypair.secret ->
  t

type verify_error =
  | Bad_signature
  | Expired
  | Holder_mismatch of { expected : Grid_gsi.Dn.t; actual : Grid_gsi.Dn.t }

val verify_error_to_string : verify_error -> string

val verify :
  t ->
  cas_key:Grid_crypto.Keypair.public ->
  presenter:Grid_gsi.Dn.t ->
  now:Grid_sim.Clock.time ->
  (unit, verify_error) result
(** Signature, lifetime, and holder-binding checks. *)

val encode : t -> string
val decode : string -> (t, string) result

val to_extension : t -> Grid_gsi.Cert.extension
(** Wrap for embedding in a proxy certificate. *)

val find_in_credential : Grid_gsi.Credential.t -> (t, string) result option
(** Locate and decode a capability carried in a credential chain. *)
