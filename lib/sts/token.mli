(** Short-TTL capability tokens minted by the Security Token Service.

    A token is the STS's counterpart to a CAS capability credential: a
    signed assertion that [subject] may exercise [entitlements] against
    [audience] until [not_after]. Where CAS capabilities are long-lived
    and leave revocation to CRL propagation, tokens are short-lived by
    construction — the [jti] names the individual grant so a stateful
    revocation layer can kill one token, and the short window bounds the
    exposure when no such layer runs (the stateless mode).

    Tokens travel like capabilities do: embedded as a (non-critical)
    extension of a delegated proxy certificate, so the unmodified GRAM
    request path carries them to the resource's token-validating PEP. *)

type t = {
  subject : Grid_gsi.Dn.t;  (** the only identity that may wield it *)
  audience : string;  (** resource scope it is bound to; ["*"] = any *)
  entitlements : string list;
      (** action names the token may authorize; [["*"]] = all actions *)
  jti : string;  (** unique token id, the revocation handle *)
  epoch : int;  (** the STS trust-configuration epoch at mint time *)
  issued_at : Grid_sim.Clock.time;
  not_after : Grid_sim.Clock.time;
  signature : string;  (** by the STS key over the canonical encoding *)
}

val make :
  subject:Grid_gsi.Dn.t ->
  audience:string ->
  entitlements:string list ->
  jti:string ->
  epoch:int ->
  issued_at:Grid_sim.Clock.time ->
  not_after:Grid_sim.Clock.time ->
  signing_key:Grid_crypto.Keypair.secret ->
  t

type verify_error =
  | Bad_signature
  | Expired
  | Not_yet_valid
  | Audience_mismatch of { bound : string; presented_to : string }
  | Subject_mismatch of { bound : Grid_gsi.Dn.t; presenter : Grid_gsi.Dn.t }

val verify_error_to_string : verify_error -> string

val verify :
  t ->
  sts_key:Grid_crypto.Keypair.public ->
  presenter:Grid_gsi.Dn.t ->
  audience:string ->
  now:Grid_sim.Clock.time ->
  (unit, verify_error) result
(** Signature, validity window, audience binding and subject binding, in
    that order. Revocation is the validator's concern, not the token's. *)

val permits : t -> Grid_policy.Types.Action.t -> bool
(** Whether the token's entitlements cover an action. *)

(** {1 Wire encoding} *)

val encode : t -> string
(** Injective length-prefixed encoding ({!Grid_util.Wire}); adversarial
    DN components or entitlement strings cannot alias another token. *)

val decode : string -> (t, string) result

val to_extension : t -> Grid_gsi.Cert.extension

val find_in_credential : Grid_gsi.Credential.t -> (t, string) result option
(** The first token extension anywhere in the presented chain; [None]
    when the credential carries no token. *)

val credential_deadline : Grid_gsi.Credential.t -> Grid_sim.Clock.time option
(** [not_after] of the token carried by a credential, when one decodes —
    the extra deadline the decision cache caps token-authorized entries
    by. *)
