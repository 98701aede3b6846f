(* Resource-side revocation state, per distribution mode. *)

type mode =
  | Short_ttl
  | Push
  | Pull

let mode_to_string = function
  | Short_ttl -> "short-ttl"
  | Push -> "push"
  | Pull -> "pull"

let mode_of_string = function
  | "short-ttl" | "short_ttl" -> Some Short_ttl
  | "push" -> Some Push
  | "pull" -> Some Pull
  | _ -> None

let all_modes = [ Short_ttl; Push; Pull ]

type entry = {
  jti : string;
  subject : string;
  revoked_at : Grid_sim.Clock.time;
}

let encode_crl entries =
  Grid_util.Wire.encode
    (List.concat_map
       (fun e -> [ e.jti; e.subject; Printf.sprintf "%.6f" e.revoked_at ])
       entries)

let decode_crl s =
  match Grid_util.Wire.decode s with
  | None -> None
  | Some parts ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | jti :: subject :: at :: rest -> begin
        match float_of_string_opt at with
        | Some revoked_at -> go ({ jti; subject; revoked_at } :: acc) rest
        | None -> None
      end
      | _ -> None
    in
    go [] parts

type t = {
  name : string;
  mode : mode;
  engine : Grid_sim.Engine.t;
  obs : Grid_obs.Obs.t;
  poll_interval : Grid_sim.Clock.time;
  disk : Grid_sim.Disk.t option;
  crl_file : string;
  revoked_jti : (string, Grid_sim.Clock.time) Hashtbl.t;
  revoked_subjects : (string, Grid_sim.Clock.time) Hashtbl.t;
  mutable hooks : (jti:string -> subject:string -> unit) list;
  mutable latencies : Grid_sim.Clock.time list;
  mutable polling : bool;
}

let create ~mode ~engine ?(obs = Grid_obs.Obs.noop) ?(poll_interval = 60.0) ?disk
    ?(crl_file = "sts-crl") ~name () =
  if mode = Pull && disk = None then
    invalid_arg "Validator.create: pull mode needs a disk to fetch the CRL from";
  if poll_interval <= 0.0 then invalid_arg "Validator.create: poll_interval must be positive";
  { name; mode; engine; obs; poll_interval; disk; crl_file;
    revoked_jti = Hashtbl.create 64;
    revoked_subjects = Hashtbl.create 64;
    hooks = [];
    latencies = [];
    polling = false }

let name t = t.name
let on_revocation t f = t.hooks <- f :: t.hooks
let entries t = Hashtbl.length t.revoked_jti + Hashtbl.length t.revoked_subjects
let enforcement_latencies t = t.latencies

(* Hashtbl entry overhead (bucket slot, boxed float) on top of the key
   bytes — an estimate, but a mode-fair one: both stateful modes pay it
   per entry, short-TTL pays nothing. *)
let entry_overhead = 24

let state_bytes t =
  let table tbl =
    Hashtbl.fold (fun key _ acc -> acc + String.length key + entry_overhead) tbl 0
  in
  table t.revoked_jti + table t.revoked_subjects

let is_revoked t ~jti ~subject =
  match t.mode with
  | Short_ttl -> false
  | Push | Pull -> Hashtbl.mem t.revoked_jti jti || Hashtbl.mem t.revoked_subjects subject

let note_state t =
  Grid_obs.Obs.set_gauge t.obs
    ~labels:[ ("validator", t.name); ("mode", mode_to_string t.mode) ]
    "revocation_state_bytes"
    (float_of_int (state_bytes t))

(* Apply one distributed revocation. The subject record is installed
   alongside the jti so a subject-wide revocation also refuses tokens
   whose jti this validator never saw; enforcement latency is charged
   once per entry, at first sight. *)
let install t ~now e =
  let fresh = not (Hashtbl.mem t.revoked_jti e.jti) in
  if fresh then begin
    Hashtbl.replace t.revoked_jti e.jti e.revoked_at;
    if not (Hashtbl.mem t.revoked_subjects e.subject) then
      Hashtbl.replace t.revoked_subjects e.subject e.revoked_at;
    let latency = Float.max 0.0 (now -. e.revoked_at) in
    t.latencies <- latency :: t.latencies;
    Grid_obs.Obs.incr t.obs
      ~labels:[ ("mode", mode_to_string t.mode) ]
      "revocation_applied_total";
    Grid_obs.Obs.observe t.obs
      ~labels:[ ("mode", mode_to_string t.mode) ]
      "revocation_enforcement_latency_seconds" latency;
    Grid_obs.Obs.emit t.obs ~layer:"sts" "revocation.applied"
      [ ("validator", t.name); ("mode", mode_to_string t.mode); ("jti", e.jti);
        ("subject", e.subject); ("latency", Printf.sprintf "%.6f" latency) ];
    List.iter (fun f -> f ~jti:e.jti ~subject:e.subject) t.hooks
  end

let deliver t ~now entries =
  List.iter (install t ~now) entries;
  note_state t

let fetch t =
  match t.disk with
  | None -> ()
  | Some disk ->
    Grid_obs.Obs.incr t.obs "revocation_fetches_total";
    (match Grid_sim.Disk.read disk ~file:t.crl_file with
    | None -> ()
    | Some content -> begin
      match decode_crl content with
      | None -> ()
      | Some entries ->
        let now = Grid_sim.Engine.now t.engine in
        List.iter (install t ~now) entries
    end);
    note_state t

let rec poll_loop t =
  if t.polling then
    Grid_sim.Engine.schedule_after t.engine t.poll_interval (fun () ->
        if t.polling then begin
          fetch t;
          poll_loop t
        end)

let start t =
  if t.mode = Pull && not t.polling then begin
    t.polling <- true;
    poll_loop t
  end

let stop t = t.polling <- false
