(* Credential renewal service (a MyProxy stand-in).

   Long-running jobs outlive the short-lived proxies that submitted them;
   grid deployments solved this with an online credential repository: the
   user deposits a longer-lived credential and authorizes specific
   services (a job manager, a portal) to draw fresh proxies from it. The
   server authenticates the renewer, checks the authorization list, and
   issues a new proxy of the escrowed identity. *)

type deposit = {
  identity : Identity.t;                (* the escrowed credential *)
  authorized_renewers : Dn.t list;      (* who may draw proxies *)
  max_proxy_lifetime : Grid_sim.Clock.time;
}

type t = {
  deposits : (string, deposit) Hashtbl.t; (* keyed by owner DN *)
  obs : Grid_obs.Obs.t;
  mutable renewals : int;
  mutable replacements : int;
}

type error =
  | No_deposit of Dn.t
  | Renewer_not_authorized of { owner : Dn.t; renewer : Dn.t }
  | Renewer_authentication_failed of string
  | Escrowed_credential_expired of Dn.t

let error_to_string = function
  | No_deposit dn -> "no credential deposited for " ^ Dn.to_string dn
  | Renewer_not_authorized { owner; renewer } ->
    Printf.sprintf "%s is not authorized to renew for %s" (Dn.to_string renewer)
      (Dn.to_string owner)
  | Renewer_authentication_failed m -> "renewer authentication failed: " ^ m
  | Escrowed_credential_expired dn ->
    "escrowed credential expired for " ^ Dn.to_string dn

let create ?(obs = Grid_obs.Obs.noop) () =
  { deposits = Hashtbl.create 8; obs; renewals = 0; replacements = 0 }

(* An attacker who can deposit under a victim's DN silently hijacks every
   later renewal, so a replacement is never silent: it is reported to the
   caller and audited. *)
let deposit t ~(identity : Identity.t) ~authorized_renewers
    ?(max_proxy_lifetime = Grid_sim.Clock.hours 12.0) ~now () =
  let owner = Dn.to_string (Identity.effective_subject identity) in
  let replaced = Hashtbl.mem t.deposits owner in
  Hashtbl.replace t.deposits owner
    { identity; authorized_renewers; max_proxy_lifetime };
  if replaced then begin
    t.replacements <- t.replacements + 1;
    Grid_obs.Obs.incr t.obs "renewal_redeposits_total";
    Grid_obs.Obs.emit t.obs ~layer:"gsi" "renewal.redeposit"
      [ ("owner", owner); ("at", Printf.sprintf "%.6f" now) ];
    `Replaced
  end
  else `Deposited

let renewals t = t.renewals
let replacements t = t.replacements

(* Draw a fresh proxy of [owner]'s escrowed identity. The renewer
   authenticates with their own credential; self-renewal (owner drawing
   their own fresh proxy) is always permitted. *)
let renew t ~(trust : Ca.Trust_store.store) ~now ~owner
    (renewer_credential : Credential.t) : (Identity.t, error) result =
  match Hashtbl.find_opt t.deposits (Dn.to_string owner) with
  | None -> Error (No_deposit owner)
  | Some deposit -> begin
    match
      Credential.validate renewer_credential ~trust ~now
    with
    | Error e -> Error (Renewer_authentication_failed (Credential.error_to_string e))
    | Ok renewer ->
      if
        not
          (Dn.equal renewer owner
          || List.exists (Dn.equal renewer) deposit.authorized_renewers)
      then Error (Renewer_not_authorized { owner; renewer })
      else if not (Cert.valid_at (Identity.certificate deposit.identity) ~now) then
        Error (Escrowed_credential_expired owner)
      else begin
        t.renewals <- t.renewals + 1;
        Ok (Identity.delegate deposit.identity ~now ~lifetime:deposit.max_proxy_lifetime)
      end
  end
