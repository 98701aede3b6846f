(* Seeded request streams for the four workloads. Every input is a pure
   function of the seed, so the untraced run and the traced replay see
   the same requests in the same order. *)

open Core

type who = Bo | Kate | Admin | Outsider

let dn_of = function
  | Bo -> Fusion.bo_liu
  | Kate -> Fusion.kate_keahey
  | Admin -> Fusion.admin
  | Outsider -> Fusion.outsider

let with_duration seconds text = Printf.sprintf "%s(simduration=%.17g)" text seconds

(* The Figure 3 cast's submissions: two of the six templates are denied
   by policy (bo over the developers' count cap, kate on the reserved
   queue), so about a third of the cast's stream is denied. *)
let cast_templates =
  [| (Bo, "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)");
     (Bo, "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=6)");
     (Bo, "&(executable=debugger)(directory=/sandbox/test)(jobtag=ADS)");
     (Kate, "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)");
     (Kate, "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(queue=reserved)");
     (Admin, "&(executable=demo)(directory=/sandbox/test)(jobtag=DEMO)") |]

(* Refused at the gatekeeper: the outsider is not in the grid-mapfile. *)
let outsider_template = "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"

(* [n] submissions: 5% from the outsider, the rest uniform over the
   cast's templates. *)
let submit_stream ~seed ~job_seconds n =
  let cast =
    Array.map
      (fun (who, text) -> (who, Oracle.template (with_duration job_seconds text)))
      cast_templates
  in
  let outsider = Oracle.template (with_duration job_seconds outsider_template) in
  let rng = Util.Rng.create ~seed in
  Array.init n (fun _ ->
      if Util.Rng.int rng 100 < 5 then (Outsider, outsider)
      else cast.(Util.Rng.int rng (Array.length cast)))

(* Standing jobs for the management workloads: long-running, one cpu
   each, alternately bo's (ADS) and kate's (NFC). *)
let standing_template j =
  let owner, text =
    if j mod 2 = 0 then (Bo, "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)")
    else (Kate, "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=1)")
  in
  (owner, Oracle.template (with_duration 1e9 text))

(* A management action: status, a priority signal, or cancel. A cancel
   the oracle would permit ([cancel_ok]) becomes a status read, so the
   standing job set never shrinks. *)
let pick_action rng ~cancel_ok =
  match Util.Rng.int rng 3 with
  | 0 -> Gram.Protocol.Status
  | 1 -> Gram.Protocol.Signal (Gram.Protocol.Set_priority 1)
  | _ -> if cancel_ok () then Gram.Protocol.Status else Gram.Protocol.Cancel

type manage_op = { requester : who; job : int; action : Gram.Protocol.management_action }

(* [manage]: the job's owner, the VO admin (jobtag grant) or a stranger,
   uniformly. *)
let manage_stream ~seed ~jobs ~owner_of ~cancel_ok n =
  let rng = Util.Rng.create ~seed in
  Array.init n (fun _ ->
      let job = Util.Rng.int rng jobs in
      let requester =
        match Util.Rng.int rng 3 with 0 -> owner_of job | 1 -> Admin | _ -> Outsider
      in
      let action = pick_action rng ~cancel_ok:(fun () -> cancel_ok requester job) in
      { requester; job; action })

(* [batch]: the T20 requester mix — one request in ten from one of four
   strangers, the rest from bo, kate or the VO admin. *)
let strangers = Array.init 4 (fun i -> Printf.sprintf "/O=Elsewhere/CN=stranger%d" i)

type batch_op = { requester_dn : string; target : int; op : Gram.Protocol.management_action }

let batch_stream ~seed ~jobs ~cancel_ok n =
  let rng = Util.Rng.create ~seed in
  Array.init n (fun _ ->
      let requester_dn =
        if Util.Rng.int rng 10 = 0 then strangers.(Util.Rng.int rng (Array.length strangers))
        else dn_of [| Bo; Kate; Admin |].(Util.Rng.int rng 3)
      in
      let target = Util.Rng.int rng jobs in
      let op = pick_action rng ~cancel_ok:(fun () -> cancel_ok requester_dn target) in
      { requester_dn; target; op })
