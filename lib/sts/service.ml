(* The Security Token Service: token exchange + revocation distribution. *)

module Dn = Grid_gsi.Dn
module Obs = Grid_obs.Obs

type exchange_error =
  | Claim_invalid of string
  | No_matching_relation of {
      issuer : string;
      subject : Dn.t;
    }
  | Subject_revoked of Dn.t

let exchange_error_to_string = function
  | Claim_invalid reason -> Printf.sprintf "claim invalid: %s" reason
  | No_matching_relation { issuer; subject } ->
    Printf.sprintf "no trust relation matches claim from %s for %s" issuer
      (Dn.to_string subject)
  | Subject_revoked dn ->
    Printf.sprintf "subject revoked: %s" (Dn.to_string dn)

type refresh_error =
  | Renewal of Grid_gsi.Renewal.error
  | Exchange of exchange_error

let refresh_error_to_string = function
  | Renewal e -> Grid_gsi.Renewal.error_to_string e
  | Exchange e -> exchange_error_to_string e

type t = {
  s_name : string;
  s_ttl : Grid_sim.Clock.time;
  s_mode : Validator.mode;
  relations : Trust.relation list;
  engine : Grid_sim.Engine.t;
  trust : Grid_gsi.Ca.Trust_store.store;
  obs : Obs.t;
  network : Grid_sim.Network.t;
  disk : Grid_sim.Disk.t;
  key : Grid_crypto.Keypair.t;
  escrow : Grid_gsi.Renewal.t;
  (* subject DN -> (jti, not_after) of every grant minted to it, newest
     first: subject-wide revocation and outstanding_not_after read only
     the subject's own grants *)
  issued : (string, (string * Grid_sim.Clock.time) list) Hashtbl.t;
  revoked_jti : (string, Grid_sim.Clock.time) Hashtbl.t;
  revoked_subjects : (string, Grid_sim.Clock.time) Hashtbl.t;
  mutable crl_entries : Validator.entry list;  (* newest first *)
  mutable attached : Validator.t list;
  mutable counter : int;
  crl_file : string;
}

(* How long a push-mode revocation may take to reach the validators, and
   how often pull-mode validators re-read the CRL. *)
let push_window = 1.0
let poll_interval = 60.0

(* The trust relations are fixed at creation, so every token carries
   the same relations epoch. *)
let relations_epoch = 1

let create ?(name = "sts") ?(default_ttl = 900.0) ?(mode = Validator.Short_ttl)
    ?relations ~engine ~trust ~obs () =
  if default_ttl <= 0.0 then
    invalid_arg "Service.create: default_ttl must be positive";
  let relations =
    match relations with
    | Some rs -> rs
    | None -> [ Trust.relation ~max_ttl:default_ttl (name ^ "-default") ]
  in
  let key = Grid_crypto.Keypair.generate ~seed_material:("sts|" ^ name) in
  Grid_crypto.Keypair.register key;
  { s_name = name;
    s_ttl = default_ttl;
    s_mode = mode;
    relations;
    engine;
    trust;
    obs;
    network = Grid_sim.Network.create engine;
    disk = Grid_sim.Disk.create ();
    key;
    escrow = Grid_gsi.Renewal.create ~obs ();
    issued = Hashtbl.create 256;
    revoked_jti = Hashtbl.create 64;
    revoked_subjects = Hashtbl.create 64;
    crl_entries = [];
    attached = [];
    counter = 0;
    crl_file = name ^ "-crl" }

let public_key t = Grid_crypto.Keypair.public t.key
let default_ttl t = t.s_ttl

let propagation_window t =
  match t.s_mode with
  | Validator.Short_ttl -> t.s_ttl
  | Validator.Push -> push_window
  | Validator.Pull -> poll_interval +. 1.0

let next_counter t =
  t.counter <- t.counter + 1;
  t.counter

let fresh_challenge t =
  Printf.sprintf "%s-challenge-%d" t.s_name (next_counter t)

let subject_revoked_at t subject =
  Hashtbl.find_opt t.revoked_subjects (Dn.to_string subject)

(* Mint a token once the claim is verified: relation lookup, TTL cap,
   grant bookkeeping, audit. *)
let mint t ~now ~issuer subject =
  match subject_revoked_at t subject with
  | Some _ -> Error (Subject_revoked subject)
  | None -> begin
    match Trust.first_match t.relations ~subject with
    | None -> Error (No_matching_relation { issuer; subject })
    | Some rel ->
      let ttl = Float.min t.s_ttl rel.Trust.max_ttl in
      let jti = Printf.sprintf "%s-jti-%d" t.s_name (next_counter t) in
      let token =
        Token.make ~subject ~audience:"*"
          ~entitlements:rel.Trust.entitlements ~jti ~epoch:relations_epoch
          ~issued_at:now ~not_after:(now +. ttl)
          ~signing_key:(Grid_crypto.Keypair.secret t.key)
      in
      let key = Dn.to_string subject in
      Hashtbl.replace t.issued key
        ((jti, token.Token.not_after)
         :: Option.value (Hashtbl.find_opt t.issued key) ~default:[]);
      Obs.incr t.obs
        ~labels:[ ("service", t.s_name); ("relation", rel.Trust.rel_name) ]
        "tokens_issued_total";
      Obs.emit t.obs ~layer:"sts" "token.issued"
        [ ("service", t.s_name);
          ("jti", jti);
          ("subject", Dn.to_string subject);
          ("audience", "*");
          ("relation", rel.Trust.rel_name);
          ("epoch", string_of_int relations_epoch);
          ("not_after", Printf.sprintf "%.6f" token.Token.not_after) ];
      Ok token
  end

(* The claim issuer of a GSI identity is the CA that certified the
   end-entity beneath any proxies. *)
let end_entity_issuer (cred : Grid_gsi.Credential.t) =
  let rec go = function
    | [] -> None
    | (c : Grid_gsi.Cert.t) :: rest ->
      if c.Grid_gsi.Cert.kind = Grid_gsi.Cert.End_entity then
        Some (Dn.to_string c.Grid_gsi.Cert.issuer)
      else go rest
  in
  go cred.Grid_gsi.Credential.chain

let exchange t ~now credential =
  match Grid_gsi.Credential.validate credential ~trust:t.trust ~now with
  | Error e -> Error (Claim_invalid (Grid_gsi.Credential.error_to_string e))
  | Ok subject ->
    let issuer =
      match end_entity_issuer credential with
      | Some i -> i
      | None -> ""
    in
    mint t ~now ~issuer subject

let proxy_with_token t ~now identity =
  let credential =
    Grid_gsi.Credential.of_identity identity ~challenge:(fresh_challenge t)
  in
  match exchange t ~now credential with
  | Error e -> Error e
  | Ok token ->
    let lifetime = token.Token.not_after -. now in
    let proxy =
      Grid_gsi.Identity.delegate identity ~now ~lifetime
        ~extensions:[ Token.to_extension token ]
    in
    Ok (proxy, token)

(* Escrow *)

let deposit t ~identity ~authorized_renewers ~now () =
  Grid_gsi.Renewal.deposit t.escrow ~identity ~authorized_renewers ~now ()

let refresh t ~now ~owner renewer_credential =
  match subject_revoked_at t owner with
  | Some _ -> Error (Exchange (Subject_revoked owner))
  | None -> begin
    match
      Grid_gsi.Renewal.renew t.escrow ~trust:t.trust ~now ~owner
        renewer_credential
    with
    | Error e -> Error (Renewal e)
    | Ok proxy -> begin
      match proxy_with_token t ~now proxy with
      | Error e -> Error (Exchange e)
      | Ok (tokenized, token) -> Ok (tokenized, token)
    end
  end

(* Revocation + distribution *)

let crl t = List.rev t.crl_entries

let write_crl t =
  let snapshot = Validator.encode_crl (crl t) in
  Grid_sim.Disk.truncate t.disk ~file:t.crl_file;
  Grid_sim.Disk.append t.disk ~file:t.crl_file snapshot;
  ignore (Grid_sim.Disk.sync t.disk ~file:t.crl_file)

let distribute t entries =
  match t.s_mode with
  | Validator.Short_ttl -> ()
  | Validator.Push ->
    List.iter
      (fun v ->
        Grid_sim.Network.send ~link:("sts->" ^ Validator.name v) t.network
          (fun () ->
            Validator.deliver v ~now:(Grid_sim.Engine.now t.engine) entries))
      t.attached
  | Validator.Pull -> write_crl t

let record_revocation t ~now ~jti ~subject =
  let entry =
    { Validator.jti; subject = Dn.to_string subject; revoked_at = now }
  in
  t.crl_entries <- entry :: t.crl_entries;
  Hashtbl.replace t.revoked_jti jti now;
  Obs.incr t.obs
    ~labels:[ ("service", t.s_name);
              ("mode", Validator.mode_to_string t.s_mode) ]
    "revocation_events_total";
  Obs.emit t.obs ~layer:"sts" "token.revoked"
    [ ("service", t.s_name);
      ("jti", jti);
      ("subject", Dn.to_string subject);
      ("revoked_at", Printf.sprintf "%.6f" now) ];
  entry

let revoke_subject t ~now subject =
  let key = Dn.to_string subject in
  if not (Hashtbl.mem t.revoked_subjects key) then begin
    Hashtbl.replace t.revoked_subjects key now;
    (* Every outstanding grant dies, plus a subject-wide entry so
       validators refuse tokens whose jti they never saw minted. *)
    let outstanding =
      Option.value (Hashtbl.find_opt t.issued key) ~default:[]
      |> List.filter_map (fun (jti, _) ->
             if Hashtbl.mem t.revoked_jti jti then None else Some jti)
      |> List.sort String.compare
    in
    let entries =
      List.map (fun jti -> record_revocation t ~now ~jti ~subject) outstanding
    in
    let wide =
      record_revocation t ~now ~jti:("subject-revocation:" ^ key) ~subject
    in
    (* The subject-level audit record the monitor's expired-credential
       invariant keys on. *)
    Obs.emit t.obs ~layer:"sts" "credential.revoked"
      [ ("service", t.s_name); ("subject", key);
        ("revoked_at", Printf.sprintf "%.6f" now) ];
    distribute t (entries @ [ wide ])
  end

let outstanding_not_after t subject =
  match Hashtbl.find_opt t.issued (Dn.to_string subject) with
  | None | Some [] -> None
  | Some ((_, first) :: rest) ->
    Some (List.fold_left (fun best (_, not_after) -> Float.max best not_after) first rest)

(* Validators *)

let attach_validator t ?obs ~name () =
  let obs = match obs with Some o -> o | None -> t.obs in
  let v =
    Validator.create ~mode:t.s_mode ~engine:t.engine ~obs ~poll_interval ~disk:t.disk
      ~crl_file:t.crl_file ~name ()
  in
  t.attached <- v :: t.attached;
  (* A late joiner must not miss earlier revocations: seed push-mode
     state in-band, and arm the pull loop. *)
  (match t.s_mode with
  | Validator.Short_ttl -> ()
  | Validator.Push ->
    let entries = crl t in
    if entries <> [] then
      Grid_sim.Network.send ~link:("sts->" ^ name) t.network (fun () ->
          Validator.deliver v ~now:(Grid_sim.Engine.now t.engine) entries)
  | Validator.Pull -> Validator.start v);
  v

let quiesce t = List.iter Validator.stop t.attached

let escrow_replacements t = Grid_gsi.Renewal.replacements t.escrow
