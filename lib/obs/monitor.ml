(* Online safety-invariant monitor.

   Subscribes to the wide-event bus and continuously asserts the paper's
   enforcement guarantees over the live event stream:

     1. default-deny: no Permit without a matching policy statement at
        the decision's epoch (checked through an injected oracle — the
        monitor itself is policy-agnostic);
     2. no decision served from a stale policy epoch strictly after an
        epoch bump has propagated (scoped per resource: each fleet
        member's decisions are judged against its own reloads);
     3. no expired or revoked credential authorizing an action past the
        propagation window;
     4. post-recovery equivalence: every durably-admitted live job is
        restored after a crash (unless the store reported lost bytes —
        then the loss is accounted to the disk, not the monitor);
     5. fail-closed degradation is never upgraded to Permit.

   Events are buffered per simulation tick and flushed in a canonical
   order (state-changing events before checked events, ties broken by
   content, never by arrival order), so verdicts are invariant under
   reordering of events within a tick — the property the QCheck suite
   pins down. A same-tick epoch bump therefore excuses same-tick
   decisions: propagation is only expected to have happened strictly
   after the bump's tick. *)

type violation_class =
  | Default_deny
  | Stale_epoch
  | Expired_credential
  | Recovery_divergence
  | Fail_open_upgrade
  | Token_revocation

let class_to_string = function
  | Default_deny -> "default_deny"
  | Stale_epoch -> "stale_epoch"
  | Expired_credential -> "expired_credential"
  | Recovery_divergence -> "recovery_divergence"
  | Fail_open_upgrade -> "fail_open_upgrade"
  | Token_revocation -> "token_revocation"

let class_of_string = function
  | "default_deny" -> Some Default_deny
  | "stale_epoch" -> Some Stale_epoch
  | "expired_credential" -> Some Expired_credential
  | "recovery_divergence" -> Some Recovery_divergence
  | "fail_open_upgrade" -> Some Fail_open_upgrade
  | "token_revocation" -> Some Token_revocation
  | _ -> None

let all_classes =
  [ Default_deny; Stale_epoch; Expired_credential; Recovery_divergence;
    Fail_open_upgrade; Token_revocation ]

type violation = {
  vclass : violation_class;
  at : Grid_sim.Clock.time;
  corr : string option;
  message : string;
  chain : Event.t list;  (* the correlated event chain, chronological *)
}

(* --- Oracles ------------------------------------------------------------ *)

type oracle = Event.t -> bool option

(* Scope an oracle to one PEP: decision events carry the backend label
   [Callout.instrument] stamped them with, and an oracle answering for
   the wrong backend would re-derive answers from the wrong policy
   world. *)
let oracle_for_backend backend (oracle : oracle) : oracle =
 fun e -> if Event.attr e "backend" = Some backend then oracle e else None

(* Compose per-backend oracles into one: the first that claims the event
   answers. With [oracle_for_backend] scoping, claims are disjoint, so
   composition order carries no meaning. *)
let any_oracle (oracles : oracle list) : oracle =
 fun e -> List.find_map (fun o -> o e) oracles

type t = {
  (* [oracle event] re-derives the policy answer for an
     ["authz.decision"] event: [Some true] = policy permits, [Some
     false] = policy denies (a permit is then a default-deny violation),
     [None] = not my backend / epoch unknown. Injected by the campaign
     driver, which holds the live policy sources per epoch. *)
  oracle : oracle option;
  propagation_window : float;
  (* Epoch freshness is scoped per resource (the "resource" event
     attribute; "" when absent): each fleet member reloads on its own
     cadence, and site A's decisions must only be judged against site
     A's reloads. Single-site streams carry no resource attribute and
     collapse to one scope, behaving exactly as before. *)
  epochs : (string, int * Grid_sim.Clock.time) Hashtbl.t;
  revoked : (string, Grid_sim.Clock.time) Hashtbl.t;  (* subject -> revoked at *)
  revoked_jti : (string, Grid_sim.Clock.time) Hashtbl.t;  (* jti -> revoked at *)
  (* Crash/recovery bookkeeping is scoped per resource (the "resource"
     event attribute; "" when absent, which keeps single-site event
     streams behaving exactly as before): in a fleet, site A's recovery
     must only answer for jobs durably admitted at site A. *)
  live_durable : (string, string * Grid_sim.Clock.time) Hashtbl.t;
    (* contact -> (resource scope, created at) *)
  restored : (string, unit) Hashtbl.t;  (* scope\x00contact since last crash *)
  crashed_at : (string, Grid_sim.Clock.time) Hashtbl.t;  (* scope -> crash tick *)
  by_corr : (string, Event.t list) Hashtbl.t;  (* reversed chains *)
  mutable chain_count : int;
  mutable pending : Event.t list;  (* current tick, arrival order reversed *)
  mutable pending_at : Grid_sim.Clock.time;
  mutable violations_rev : violation list;
  mutable events_seen : int;
}

(* --- Canonical intra-tick order ---------------------------------------- *)

(* State-changing events apply before anything they could excuse or
   implicate; [job.restored] applies before the [resource.recovered]
   that closes the books on a recovery. Checked events come last. The
   tie-break is by content only — two events that differ merely in
   arrival order are interchangeable, which is what makes verdicts
   permutation-invariant within a tick. *)
let rank kind =
  match kind with
  | "policy.epoch" -> 0
  (* "token.revoked" shares the revocation rank; the string tie-break
     below keeps intra-rank order canonical. *)
  | "credential.revoked" | "token.revoked" -> 1
  | "credential.renewed" -> 2
  | "job.created" -> 3
  | "job.terminal" -> 4
  | "resource.crashed" -> 5
  | "job.restored" -> 6
  | "resource.recovered" -> 7
  | _ -> 10

let canonical_compare (a : Event.t) (b : Event.t) =
  let c = compare (rank a.Event.kind) (rank b.Event.kind) in
  if c <> 0 then c
  else
    let c = String.compare a.Event.kind b.Event.kind in
    if c <> 0 then c
    else
      let c = compare a.Event.corr b.Event.corr in
      if c <> 0 then c else compare a.Event.attrs b.Event.attrs

(* --- Violation recording ----------------------------------------------- *)

let chain_of t (event : Event.t) =
  match event.Event.corr with
  | None -> [ event ]
  | Some corr -> begin
    match Hashtbl.find_opt t.by_corr corr with
    | Some events -> List.rev events
    | None -> [ event ]
  end

let violate t ~event vclass message =
  t.violations_rev <-
    { vclass;
      at = event.Event.at;
      corr = event.Event.corr;
      message;
      chain = chain_of t event }
    :: t.violations_rev

(* --- Per-event checks --------------------------------------------------- *)

let scope_of (e : Event.t) = Option.value (Event.attr e "resource") ~default:""
let restored_key scope contact = scope ^ "\x00" ^ contact

let apply_state t (e : Event.t) =
  match e.Event.kind with
  | "policy.epoch" -> begin
    match Event.attr_int e "epoch" with
    | Some epoch ->
      let scope = scope_of e in
      (match Hashtbl.find_opt t.epochs scope with
      | Some (cur, _) when epoch <= cur -> ()
      | Some _ | None -> Hashtbl.replace t.epochs scope (epoch, e.Event.at))
    | None -> ()
  end
  | "credential.revoked" -> begin
    match Event.attr e "subject" with
    | Some subject ->
      if not (Hashtbl.mem t.revoked subject) then
        Hashtbl.replace t.revoked subject e.Event.at
    | None -> ()
  end
  | "token.revoked" -> begin
    match Event.attr e "jti" with
    | Some jti ->
      if not (Hashtbl.mem t.revoked_jti jti) then
        Hashtbl.replace t.revoked_jti jti e.Event.at
    | None -> ()
  end
  | "job.created" -> begin
    match (Event.attr e "contact", Event.attr e "durable") with
    | Some contact, Some "true" ->
      Hashtbl.replace t.live_durable contact (scope_of e, e.Event.at)
    | _ -> ()
  end
  | "job.terminal" -> begin
    match Event.attr e "contact" with
    | Some contact -> Hashtbl.remove t.live_durable contact
    | None -> ()
  end
  | "resource.crashed" ->
    let scope = scope_of e in
    Hashtbl.replace t.crashed_at scope e.Event.at;
    Hashtbl.iter
      (fun key () ->
        if String.length key > String.length scope
           && String.sub key 0 (String.length scope) = scope
           && key.[String.length scope] = '\x00'
        then Hashtbl.remove t.restored key)
      (Hashtbl.copy t.restored)
  | "job.restored" -> begin
    match Event.attr e "contact" with
    | Some contact -> Hashtbl.replace t.restored (restored_key (scope_of e) contact) ()
    | None -> ()
  end
  | "resource.recovered" -> begin
    (* Invariant 4, per resource scope. Everything durably admitted at
       this resource before its crash tick must come back; losses
       explained by the disk (torn/corrupt tail bytes, undecodable
       records) are excused but still reconciled, so a disk-explained
       loss is not re-reported at the next recovery. *)
    let scope = scope_of e in
    let dropped = Option.value (Event.attr_int e "dropped_bytes") ~default:0 in
    let undecodable = Option.value (Event.attr_int e "decode_failures") ~default:0 in
    let crash_tick =
      Option.value (Hashtbl.find_opt t.crashed_at scope) ~default:e.Event.at
    in
    let missing =
      Hashtbl.fold
        (fun contact (job_scope, created_at) acc ->
          if
            String.equal job_scope scope && created_at < crash_tick
            && not (Hashtbl.mem t.restored (restored_key scope contact))
          then contact :: acc
          else acc)
        t.live_durable []
      |> List.sort String.compare
    in
    if missing <> [] then begin
      if dropped = 0 && undecodable = 0 then
        violate t ~event:e Recovery_divergence
          (Printf.sprintf
             "recovery diverged from the uncrashed oracle: %d durable live job(s) \
              not restored (%s) with no reported store loss"
             (List.length missing)
             (String.concat ", " missing));
      List.iter (Hashtbl.remove t.live_durable) missing
    end;
    Hashtbl.remove t.crashed_at scope
  end
  | _ -> ()

let check_epoch t (e : Event.t) =
  (* Invariant 2: strictly after a bump's tick at the same resource, no
     decision (or cache answer) there may carry an older epoch.
     Same-tick decisions are excused: within one simulation instant
     ordering against the reload is not defined. *)
  match (Event.attr_int e "epoch", Hashtbl.find_opt t.epochs (scope_of e)) with
  | Some epoch, Some (current, changed_at)
    when epoch < current && e.Event.at > changed_at ->
    violate t ~event:e Stale_epoch
      (Printf.sprintf "%s served under stale policy epoch %d (current %d since t=%.3fs)"
         e.Event.kind epoch current changed_at)
  | _ -> ()

let check_decision t (e : Event.t) =
  check_epoch t e;
  if Event.attr e "outcome" = Some "permitted" then begin
    (* Invariant 3: a permit must rest on a live, unrevoked credential. *)
    (match Event.attr_float e "cred_expiry" with
    | Some expiry when e.Event.at > expiry ->
      violate t ~event:e Expired_credential
        (Printf.sprintf "permit authorized by a credential expired at t=%.3fs" expiry)
    | _ -> ());
    (match Event.attr e "subject" with
    | Some subject -> begin
      match Hashtbl.find_opt t.revoked subject with
      | Some revoked_at when e.Event.at > revoked_at +. t.propagation_window ->
        violate t ~event:e Expired_credential
          (Printf.sprintf
             "permit for %s whose credential was revoked at t=%.3fs (window %.0fs)"
             subject revoked_at t.propagation_window)
      | _ -> ()
    end
    | None -> ());
    (* Invariant 1: the oracle re-derives the policy answer for the
       decision's epoch; a permit the policy would deny violates
       default-deny. *)
    match t.oracle with
    | None -> ()
    | Some oracle -> begin
      match oracle e with
      | Some false ->
        violate t ~event:e Default_deny
          (Printf.sprintf "permit with no matching policy statement at epoch %s"
             (match Event.attr e "epoch" with Some s -> s | None -> "?"))
      | Some true | None -> ()
    end
  end

(* Invariant 6 (token revocation): an accepted token check must rest on
   a token that is within its window and not revoked longer ago than the
   propagation window the deployment's revocation mode promises. *)
let check_token t (e : Event.t) =
  if Event.attr e "outcome" = Some "accepted" then begin
    (match Event.attr_float e "not_after" with
    | Some not_after when e.Event.at > not_after ->
      violate t ~event:e Expired_credential
        (Printf.sprintf "token accepted past its expiry at t=%.3fs" not_after)
    | _ -> ());
    match Event.attr e "jti" with
    | None -> ()
    | Some jti -> begin
      match Hashtbl.find_opt t.revoked_jti jti with
      | Some revoked_at when e.Event.at > revoked_at +. t.propagation_window ->
        violate t ~event:e Token_revocation
          (Printf.sprintf
             "token %s accepted although revoked at t=%.3fs (window %.0fs)" jti
             revoked_at t.propagation_window)
      | _ -> ()
    end
  end

let check_degraded t (e : Event.t) =
  (* Invariant 5: fail-closed degradation converts outages to refusals,
     never to permits. *)
  if
    Event.attr e "mode" = Some "fail_closed"
    && Event.attr e "final" = Some "permitted"
  then
    violate t ~event:e Fail_open_upgrade
      "fail-closed degradation upgraded an authorization outage to Permit"

let process t (e : Event.t) =
  t.events_seen <- t.events_seen + 1;
  apply_state t e;
  match e.Event.kind with
  | "authz.decision" -> check_decision t e
  | "cache.hit" -> check_epoch t e
  | "authz.degraded" -> check_degraded t e
  | "token.validated" -> check_token t e
  | _ -> ()

(* --- Tick buffering ----------------------------------------------------- *)

let flush t =
  match t.pending with
  | [] -> ()
  | pending ->
    t.pending <- [];
    List.iter (process t) (List.stable_sort canonical_compare (List.rev pending))

(* Bound on the per-request chains kept for violation reports. *)
let chain_limit = 500_000

let remember t (e : Event.t) =
  match e.Event.corr with
  | None -> ()
  | Some corr ->
    if t.chain_count < chain_limit then begin
      t.chain_count <- t.chain_count + 1;
      Hashtbl.replace t.by_corr corr
        (e :: Option.value (Hashtbl.find_opt t.by_corr corr) ~default:[])
    end

let ingest t (e : Event.t) =
  remember t e;
  if t.pending <> [] && e.Event.at > t.pending_at then flush t;
  t.pending_at <- e.Event.at;
  t.pending <- e :: t.pending

(* --- Construction ------------------------------------------------------- *)

let create ?oracle ?(propagation_window = 300.0) bus =
  let t =
    { oracle;
      propagation_window;
      epochs = Hashtbl.create 8;
      revoked = Hashtbl.create 8;
      revoked_jti = Hashtbl.create 8;
      live_durable = Hashtbl.create 64;
      restored = Hashtbl.create 64;
      crashed_at = Hashtbl.create 8;
      by_corr = Hashtbl.create 1024;
      chain_count = 0;
      pending = [];
      pending_at = 0.0;
      violations_rev = [];
      events_seen = 0 }
  in
  Event.subscribe bus (ingest t);
  t

let violations t = List.rev t.violations_rev
let violation_count t = List.length t.violations_rev
let events_seen t = t.events_seen

(* The newest epoch observed across every resource scope. *)
let current_epoch t =
  Hashtbl.fold
    (fun _ (epoch, _) acc ->
      match acc with Some e when e >= epoch -> acc | _ -> Some epoch)
    t.epochs None

let classes t =
  List.sort_uniq compare (List.map (fun v -> v.vclass) t.violations_rev)

let pp_violation ppf v =
  Fmt.pf ppf "@[<v>VIOLATION %s at t=%.3fs%a: %s@,correlated event chain:@,%a@]"
    (class_to_string v.vclass) v.at
    (fun ppf -> function None -> () | Some c -> Fmt.pf ppf " [%s]" c)
    v.corr v.message
    (Fmt.list ~sep:Fmt.cut (fun ppf e -> Fmt.pf ppf "  %a" Event.pp e))
    v.chain

let pp ppf t =
  let vs = violations t in
  if vs = [] then
    Fmt.pf ppf "safety monitor: %d events checked, 0 violations" t.events_seen
  else
    Fmt.pf ppf "@[<v>safety monitor: %d events checked, %d violation(s)@,%a@]"
      t.events_seen (List.length vs)
      (Fmt.list ~sep:Fmt.cut pp_violation) vs
