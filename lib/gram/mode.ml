(* GRAM operating modes.

   [Gt2_baseline] is unmodified GT2 (Section 4): authorization is the
   grid-mapfile check in the Gatekeeper, and only the job initiator may
   manage a job. [Extended] is the paper's design (Section 5): an
   authorization callout is consulted in the Job Manager before job
   creation and before every management action, and management by
   identities other than the initiator becomes possible when policy
   permits. The callout itself is resolved through the runtime
   configuration, as in the prototype. *)

type t =
  | Gt2_baseline
  | Extended of {
      authorization : Grid_callout.Callout.Batch.t;
      (* Two-lane callout: the single lane answers the per-request
         consultations, the many lane lets the job manager authorize a
         whole management batch in one amortized pass. Plain callouts
         enter through [extended], which lifts them with the derived
         (map-the-single-lane) many lane. *)
      (* Optional policy-derived-enforcement hook (the paper's Section 7
         "GT3" direction): given a query that was just authorized,
         return the policy clause the decision rested on so the JMI can
         configure the sandbox from it. *)
      advice : (Grid_callout.Callout.query -> Grid_policy.Types.clause option) option;
      (* Which PEP implementation backs the callout; becomes the
         [backend] label on authorization metrics. *)
      backend : string;
    }

let is_extended = function Extended _ -> true | Gt2_baseline -> false

let to_string = function
  | Gt2_baseline -> "GT2 baseline"
  | Extended { backend; _ } -> Printf.sprintf "extended (%s authorization callout)" backend

(* Resolve the Extended mode's callout from a configuration file against a
   registry — the deployment path; misconfiguration yields a mode whose
   callout fails closed with the configuration error. *)
let extended_batch ?advice ?(backend = "custom") authorization =
  Extended { authorization; advice; backend }

let extended ?advice ?backend authorization =
  extended_batch ?advice ?backend (Grid_callout.Callout.Batch.of_callout authorization)

let extended_from_config config registry =
  let authorization =
    match
      Grid_callout.Config.resolve config registry Grid_callout.Config.gram_authz_type
    with
    | Ok authorization -> Grid_callout.Callout.Batch.of_callout authorization
    | Error e -> Grid_callout.Callout.Batch.of_callout (fun _ -> Error e)
  in
  Extended { authorization; advice = None; backend = "config" }

(* Wrap the mode's callout so every consultation is spanned and counted
   under its backend label. GT2 baseline has no callout to wrap; its
   gridmap decisions are counted by the Gatekeeper itself. *)
let instrument ?epoch ~obs = function
  | Gt2_baseline -> Gt2_baseline
  | Extended { authorization; advice; backend } ->
    Extended
      { authorization =
          Grid_callout.Callout.instrument_batch ~backend ?epoch ~obs authorization;
        advice;
        backend }

(* Memoize the mode's callout through a decision cache, scoped under the
   backend label so a shared cache keeps distinct PEPs' keys apart.
   Compose *inside* [instrument]: cache hits still count as
   authorization decisions, they just skip policy evaluation. *)
let with_cache ~cache = function
  | Gt2_baseline -> Gt2_baseline
  | Extended { authorization; advice; backend } ->
    Extended
      { authorization =
          Grid_callout.Cache.with_cache_many cache ~scope:backend authorization;
        advice;
        backend }
