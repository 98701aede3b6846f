(* The CAS server.

   Holds a VO and a signing keypair. On request it authenticates the user,
   checks membership, extracts the subset of the community policy that
   applies to the user, and signs it into a capability. *)

type t = {
  vo : Grid_vo.Vo.t;
  keypair : Grid_crypto.Keypair.t;
  mutable capabilities_issued : int;
}

let capability_lifetime = Grid_sim.Clock.hours 8.0

let create ~vo name =
  let keypair = Grid_crypto.Keypair.generate ~seed_material:("cas:" ^ name) in
  Grid_crypto.Keypair.register keypair;
  { vo; keypair; capabilities_issued = 0 }

let public_key t = Grid_crypto.Keypair.public t.keypair
let capabilities_issued t = t.capabilities_issued

(* The policy subset relevant to one user: requirement statements covering
   them plus grant statements addressed to them. Anything else would leak
   other members' rights into the capability. *)
let user_policy t ~user =
  Grid_vo.Vo.compile_policy t.vo
  |> List.filter (fun st -> Grid_policy.Types.statement_applies st ~subject:user)

type grant_error =
  | Not_a_member
  | Authentication_failed of string

let grant_error_to_string = function
  | Not_a_member -> "requester is not a member of the community"
  | Authentication_failed m -> "authentication failed: " ^ m

let grant t ~trust ~now (credential : Grid_gsi.Credential.t) =
  match Grid_gsi.Credential.validate credential ~trust ~now with
  | Error e -> Error (Authentication_failed (Grid_gsi.Credential.error_to_string e))
  | Ok user ->
    if not (Grid_vo.Vo.is_member t.vo user) then Error Not_a_member
    else begin
      let policy_text = Grid_policy.Types.to_string (user_policy t ~user) in
      t.capabilities_issued <- t.capabilities_issued + 1;
      Ok
        (Capability.make ~holder:user ~vo:(Grid_vo.Vo.name t.vo) ~policy_text ~issued_at:now
           ~not_after:(Grid_sim.Clock.add now capability_lifetime)
           ~signing_key:(Grid_crypto.Keypair.secret t.keypair))
    end

(* Convenience used by clients: obtain a capability and fold it into a
   fresh proxy so it travels with the user's credential. *)
let grant_proxy t ~trust ~now (identity : Grid_gsi.Identity.t) =
  let challenge = Grid_gsi.Authn.fresh_challenge () in
  match grant t ~trust ~now (Grid_gsi.Credential.of_identity identity ~challenge) with
  | Error _ as e -> e
  | Ok capability ->
    Ok
      (Grid_gsi.Identity.delegate identity ~now
         ~extensions:[ Capability.to_extension capability ])
