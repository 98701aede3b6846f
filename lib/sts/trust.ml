(* Trust relations: issuer + claim conditions -> entitlements. *)

type relation = {
  rel_name : string;
  issuer : string;
  subject_prefix : Grid_gsi.Dn.t;
  entitlements : string list;
  max_ttl : Grid_sim.Clock.time;
  audience : string;
}

let relation ?(issuer = "*") ?(subject_prefix = []) ?(entitlements = [ "*" ])
    ?(max_ttl = Grid_sim.Clock.hours 1.0) ?(audience = "*") rel_name =
  if max_ttl <= 0.0 then invalid_arg "Trust.relation: max_ttl must be positive";
  { rel_name; issuer; subject_prefix; entitlements; max_ttl; audience }

let matches r ~issuer ~subject =
  (r.issuer = "*" || String.equal r.issuer issuer)
  && Grid_gsi.Dn.is_prefix r.subject_prefix subject

let first_match relations ~issuer ~subject =
  List.find_opt (fun r -> matches r ~issuer ~subject) relations
