(* The CAS policy evaluation point.

   Resource-side: trusts a CAS public key, expects requests to arrive with
   a credential whose chain carries a capability, verifies the capability
   (signature, lifetime, holder binding), then evaluates the carried
   policy against the request. Missing or invalid capabilities deny;
   undecodable ones are authorization-system failures. *)

type clock = unit -> Grid_sim.Clock.time

type verified =
  | Verified of Capability.t
  | Not_verified of Grid_callout.Callout.error

(* Find-decode-verify, reported as a single check with one outcome label. *)
let check_capability ~cas_key ~now (query : Grid_callout.Callout.query) : verified =
  match query.Grid_callout.Callout.requester_credential with
  | None ->
    Not_verified
      (Grid_callout.Callout.Denied "no credential presented; CAS PEP requires a capability")
  | Some credential -> begin
    match Capability.find_in_credential credential with
    | None ->
      Not_verified (Grid_callout.Callout.Denied "credential carries no CAS capability")
    | Some (Error m) ->
      Not_verified (Grid_callout.Callout.System_error ("cannot decode capability: " ^ m))
    | Some (Ok capability) -> begin
      match
        Capability.verify capability ~cas_key
          ~presenter:query.Grid_callout.Callout.requester ~now:(now ())
      with
      | Error e ->
        Not_verified (Grid_callout.Callout.Denied (Capability.verify_error_to_string e))
      | Ok () -> Verified capability
    end
  end

let callout ~(cas_key : Grid_crypto.Keypair.public) ~(now : clock) : Grid_callout.Callout.t =
 fun query ->
  match check_capability ~cas_key ~now query with
  | Not_verified error -> Error error
  | Verified capability -> begin
    match Grid_policy.Parse.parse_result capability.Capability.policy_text with
    | Error m ->
      Error
        (Grid_callout.Callout.System_error ("capability carries unparseable policy: " ^ m))
    | Ok policy -> begin
      let request = Grid_callout.Callout.to_policy_request query in
      match Grid_policy.Eval.evaluate policy request with
      | Grid_policy.Eval.Permit -> Ok ()
      | Grid_policy.Eval.Deny reason ->
        Error
          (Grid_callout.Callout.Denied
             (Printf.sprintf "%s (CAS capability from %s)"
                (Grid_policy.Eval.reason_to_string reason)
                capability.Capability.vo))
    end
  end
