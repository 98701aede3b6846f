(* One GRAM resource, wired. [Testbed.make_resource], every [Fleet]
   member and every [Soak] member are built here, so the token gate, the
   decision cache's invalidation hooks and the revocation flush cannot
   drift apart between worlds. *)

type pep = {
  authorization : Grid_callout.Callout.Batch.t;
  advice : (Grid_callout.Callout.query -> Grid_policy.Types.clause option) option;
  backend : string;
  epoch : unit -> int;
  revision : (unit -> int) option;
  reload : Grid_policy.Combine.source list -> unit;
}

let rebac_pep p =
  { authorization = Grid_rebac.Pep.batch p;
    advice = None;
    backend = "rebac";
    epoch = (fun () -> Grid_rebac.Pep.epoch p);
    revision = Some (fun () -> Grid_rebac.Pep.revision p);
    reload = Grid_rebac.Pep.reload p }

(* Flat-file PEPs evaluate through the compiled policy index and get
   policy-derived sandboxes for free: the clause the decision rested on
   configures the enforcement envelope (DESIGN.md, Section 7
   direction). *)
let pep ~obs ~rebac sources =
  if rebac then rebac_pep (Grid_rebac.Pep.create ~obs sources)
  else begin
    let p = Grid_callout.File_pep.Compiled.create ~obs sources in
    { authorization = Grid_callout.File_pep.Compiled.batch p;
      advice = Some (Grid_callout.File_pep.advice sources);
      backend = "flat_file";
      epoch = (fun () -> Grid_callout.File_pep.Compiled.epoch p);
      revision = None;
      reload = Grid_callout.File_pep.Compiled.reload p }
  end

type t = {
  resource : Grid_gram.Resource.t;
  lrm : Grid_lrm.Lrm.t;
  cache : Grid_callout.Cache.t option;
  validator : Grid_sts.Validator.t option;
}

let resource ?queues ?(nodes = 4) ?(cpus_per_node = 8) ?(gridmap = Grid_gsi.Gridmap.empty)
    ?dynamic_accounts ?gatekeeper_pep ?allocation ?network ?request_timeout ?authz_cache
    ?store ?sts ?pep ?mode ~name ~engine ~trust ~obs () =
  let now () = Grid_sim.Engine.now engine in
  let epoch = Option.map (fun p -> p.epoch) pep in
  let revision = Option.bind pep (fun p -> p.revision) in
  let mode =
    match (mode, pep) with
    | Some mode, _ -> mode
    | None, Some p ->
      Grid_gram.Mode.extended_batch ?advice:p.advice ~backend:p.backend p.authorization
    | None, None -> Grid_gram.Mode.Gt2_baseline
  in
  let lrm = Grid_lrm.Lrm.create ~obs ?queues ~nodes ~cpus_per_node engine in
  let pool =
    Option.map
      (fun size ->
        Grid_accounts.Pool.create ~size ~lease_lifetime:(Grid_sim.Clock.hours 8.0) ())
      dynamic_accounts
  in
  let mapper = Grid_accounts.Mapper.create ?pool gridmap in
  (* Tokenized resource: a validator attached to the service (its own
     revocation view, fed per the distribution mode) and the
     token-validating PEP outside the policy engine — the token is
     checked first, then the engine's verdict and reason stand unchanged
     for valid presenters. *)
  let validator =
    Option.map (fun s -> Grid_sts.Service.attach_validator s ~obs ~name ()) sts
  in
  let mode =
    match (sts, mode) with
    | None, _ | _, Grid_gram.Mode.Gt2_baseline -> mode
    | Some s, Grid_gram.Mode.Extended { authorization; advice; backend } ->
      Grid_gram.Mode.Extended
        { authorization =
            Grid_sts.Pep.batch ~obs ?validator ~sts_key:(Grid_sts.Service.public_key s)
              ~audience:"*" ~now authorization;
          advice;
          backend }
  in
  let cache =
    Option.map
      (fun capacity ->
        Grid_callout.Cache.create ~capacity ~ttl:(Grid_sim.Clock.minutes 5.0) ~obs ?epoch
          ?revision
          ?extra_deadline:(Option.map (fun _ -> Grid_sts.Token.credential_deadline) sts)
          ~revoked:(fun cred ->
            List.exists
              (Grid_gsi.Ca.Trust_store.is_revoked trust)
              cred.Grid_gsi.Credential.chain)
          ~now ())
      authz_cache
  in
  (* The cache sits outside the token gate, so a cached permit would
     outlive a revoked token until its TTL: every revocation the
     validator applies flushes the cache. *)
  (match (validator, cache) with
  | Some v, Some c ->
    Grid_sts.Validator.on_revocation v (fun ~jti:_ ~subject:_ ->
        Grid_callout.Cache.invalidate c)
  | _ -> ());
  let resource =
    Grid_gram.Resource.create ~name ?gatekeeper_pep ?allocation ?network ?request_timeout
      ?authz_cache:cache ?store ?policy_epoch:epoch ~obs ~trust ~mapper ~mode ~lrm ~engine
      ()
  in
  { resource; lrm; cache; validator }
