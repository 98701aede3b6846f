(* Trust relations: issuer + claim conditions -> entitlements. *)

type relation = {
  rel_name : string;
  subject_prefix : Grid_gsi.Dn.t;
  entitlements : string list;
  max_ttl : Grid_sim.Clock.time;
}

let relation ?(subject_prefix = []) ?(entitlements = [ "*" ])
    ?(max_ttl = Grid_sim.Clock.hours 1.0) rel_name =
  if max_ttl <= 0.0 then invalid_arg "Trust.relation: max_ttl must be positive";
  { rel_name; subject_prefix; entitlements; max_ttl }

let first_match relations ~subject =
  List.find_opt (fun r -> Grid_gsi.Dn.is_prefix r.subject_prefix subject) relations
