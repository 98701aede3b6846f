(** Trust relations: the STS's exchange configuration.

    A relation states that claims from a given issuer, under given
    claim conditions, exchange for given entitlements — the access-token
    RFC shape (issuer + claim conditions -> entitlements). The claim is
    an authenticated GSI identity; its issuer is the CA that certified
    it. *)

type relation = {
  rel_name : string;
  issuer : string;
      (** trusted issuer: the CA's DN string; ["*"] accepts any issuer
          the claim itself verified against *)
  subject_prefix : Grid_gsi.Dn.t;
      (** claim condition: the subject must extend this DN prefix ([[]]
          places no condition) *)
  entitlements : string list;  (** granted action names; [["*"]] = all *)
  max_ttl : Grid_sim.Clock.time;  (** cap on the minted token lifetime *)
  audience : string;  (** audience minted tokens are bound to *)
}

val relation :
  ?issuer:string ->
  ?subject_prefix:Grid_gsi.Dn.t ->
  ?entitlements:string list ->
  ?max_ttl:Grid_sim.Clock.time ->
  ?audience:string ->
  string ->
  relation
(** [relation name] with permissive defaults: claims from any issuer, no
    subject condition, all entitlements, 1 h cap, audience ["*"]. *)

val first_match :
  relation list ->
  issuer:string ->
  subject:Grid_gsi.Dn.t ->
  relation option
(** Relations are ordered; the first match wins (the RFC's rule list). *)
