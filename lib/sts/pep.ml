(* The token-validating PEP: gate on a valid STS token, then delegate
   the policy decision to the resource's inner callout. *)

module Callout = Grid_callout.Callout
module Obs = Grid_obs.Obs

type clock = unit -> Grid_sim.Clock.time

type checked =
  | Accepted of Token.t
  | Not_accepted of Callout.error

let check_outcome = function
  | Accepted _ -> "accepted"
  | Not_accepted (Callout.Denied reason) ->
    if String.length reason >= 7 && String.sub reason 0 7 = "revoked" then
      "revoked"
    else "rejected"
  | Not_accepted _ -> "undecodable"

(* Find-decode-verify-revocation-entitlement, one outcome label. *)
let check_token ?validator ~sts_key ~audience ~now (query : Callout.query) :
    checked =
  match query.Callout.requester_credential with
  | None ->
    Not_accepted
      (Callout.Denied "no credential presented; STS PEP requires a token")
  | Some credential -> begin
    match Token.find_in_credential credential with
    | None -> Not_accepted (Callout.Denied "credential carries no STS token")
    | Some (Error m) ->
      Not_accepted (Callout.System_error ("cannot decode token: " ^ m))
    | Some (Ok token) -> begin
      match
        Token.verify token ~sts_key ~presenter:query.Callout.requester
          ~audience ~now:(now ())
      with
      | Error e -> Not_accepted (Callout.Denied (Token.verify_error_to_string e))
      | Ok () ->
        let revoked =
          match validator with
          | None -> false
          | Some v ->
            Validator.is_revoked v ~jti:token.Token.jti
              ~subject:(Grid_gsi.Dn.to_string token.Token.subject)
        in
        if revoked then
          Not_accepted
            (Callout.Denied (Printf.sprintf "revoked token %s" token.Token.jti))
        else if not (Token.permits token query.Callout.action) then
          Not_accepted
            (Callout.Denied
               (Printf.sprintf "token %s does not entitle %s" token.Token.jti
                  (Grid_policy.Types.Action.to_string query.Callout.action)))
        else Accepted token
    end
  end

let note ~obs (query : Callout.query) checked =
  if Obs.enabled obs then begin
    let outcome = check_outcome checked in
    Obs.incr obs ~labels:[ ("outcome", outcome) ] "token_checks_total";
    let attrs =
      [ ("outcome", outcome);
        ("subject", Grid_gsi.Dn.to_string query.Callout.requester);
        ("action", Grid_policy.Types.Action.to_string query.Callout.action) ]
      @
      match checked with
      | Accepted token ->
        [ ("jti", token.Token.jti);
          ("not_after", Printf.sprintf "%.6f" token.Token.not_after) ]
      | Not_accepted e -> [ ("reason", Callout.error_to_string e) ]
    in
    Obs.emit obs ~layer:"sts" "token.validated" attrs
  end

let checked_span ~obs ?validator ~sts_key ~audience ~now query =
  let checked =
    if not (Obs.enabled obs) then
      check_token ?validator ~sts_key ~audience ~now query
    else
      Obs.with_span obs "sts.verify" (fun span ->
          let checked = check_token ?validator ~sts_key ~audience ~now query in
          Grid_obs.Span.set_attr span "outcome" (check_outcome checked);
          checked)
  in
  note ~obs query checked;
  checked

let callout ?(obs = Obs.noop) ?validator ~sts_key ~audience ~now inner :
    Callout.t =
 fun query ->
  match checked_span ~obs ?validator ~sts_key ~audience ~now query with
  | Not_accepted error -> Error error
  | Accepted _token -> inner query

let batch ?(obs = Obs.noop) ?validator ~sts_key ~audience ~now
    (inner : Callout.Batch.t) : Callout.Batch.t =
  let single =
    callout ~obs ?validator ~sts_key ~audience ~now
      (Callout.Batch.check inner)
  in
  (* Check tokens per query, send only the survivors to the inner many
     lane (keeping its batch amortization), splice answers back in
     request order. *)
  let many (queries : Callout.query array) =
    let n = Array.length queries in
    let answers = Array.make n Callout.permitted in
    let keep = ref [] in
    for i = n - 1 downto 0 do
      match
        checked_span ~obs ?validator ~sts_key ~audience ~now queries.(i)
      with
      | Not_accepted error -> answers.(i) <- Error error
      | Accepted _ -> keep := i :: !keep
    done;
    let kept = Array.of_list !keep in
    if Array.length kept > 0 then begin
      let sub = Array.map (fun i -> queries.(i)) kept in
      let sub_answers = Callout.Batch.evaluate_many inner sub in
      Array.iteri (fun k i -> answers.(i) <- sub_answers.(k)) kept
    end;
    answers
  in
  Callout.Batch.make ~single ~many
