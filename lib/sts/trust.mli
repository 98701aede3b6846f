(** Trust relations: the STS's exchange configuration.

    A relation states that claims under given conditions exchange for
    given entitlements — the access-token RFC shape (claim conditions ->
    entitlements). The claim is an authenticated GSI identity from any
    CA the trust store accepts; minted tokens carry audience ["*"]. *)

type relation = {
  rel_name : string;
  subject_prefix : Grid_gsi.Dn.t;
      (** claim condition: the subject must extend this DN prefix ([[]]
          places no condition) *)
  entitlements : string list;  (** granted action names; [["*"]] = all *)
  max_ttl : Grid_sim.Clock.time;  (** cap on the minted token lifetime *)
}

val relation :
  ?subject_prefix:Grid_gsi.Dn.t ->
  ?entitlements:string list ->
  ?max_ttl:Grid_sim.Clock.time ->
  string ->
  relation
(** [relation name] with permissive defaults: no subject condition, all
    entitlements, 1 h cap. *)

val first_match : relation list -> subject:Grid_gsi.Dn.t -> relation option
(** Relations are ordered; the first match wins (the RFC's rule list). *)
