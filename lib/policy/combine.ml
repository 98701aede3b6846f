(* Multi-source policy combination (requirement 1 of Section 2).

   The resource provider outsources part of its policy administration to
   the VO: the enforcement point must combine policies from both sources,
   and an action proceeds only if every source authorizes it. A source is a
   named policy; the combined decision records which source denied, so GRAM
   can return a meaningful authorization error. *)

type source = {
  name : string; (* e.g. "resource-owner", "fusion-vo" *)
  policy : Types.t;
}

type combined_decision =
  | Permit
  | Deny of { source : string; reason : Eval.reason }

let source ~name policy = { name; policy }

let decision_to_string = function
  | Permit -> "PERMIT"
  | Deny { source; reason } ->
    Printf.sprintf "DENY by %s: %s" source (Eval.reason_to_string reason)

let is_permit = function Permit -> true | Deny _ -> false

(* Conjunctive combination: every source must permit. Sources are checked
   in order and the first denial is reported. *)
let evaluate (sources : source list) (request : Types.request) : combined_decision =
  let rec go = function
    | [] -> Permit
    | s :: rest -> begin
      match Eval.evaluate s.policy request with
      | Eval.Permit -> go rest
      | Eval.Deny reason -> Deny { source = s.name; reason }
    end
  in
  if sources = [] then
    (* No policy sources configured: fail closed, consistent with the
       language's default-deny stance. *)
    Deny { source = "(none)"; reason = Eval.No_applicable_grant }
  else go sources

(* All denials, not just the first: used by the CLI's explain mode. *)
let evaluate_all (sources : source list) (request : Types.request) :
    (string * Eval.decision) list =
  List.map (fun s -> (s.name, Eval.evaluate s.policy request)) sources

(* --- Compiled sources -------------------------------------------------- *)

(* The same conjunctive combination over pre-compiled policies: the hot
   path the flat-file PEP actually runs, one batch at a time (a single
   query is a batch of one). Decisions are identical to [evaluate]. *)

type compiled_source = {
  origin : source;
  compiled : Compile.t;
}

let compile_source (s : source) = { origin = s; compiled = Compile.compile s.policy }
let compile_sources = List.map compile_source

let epoch_of (sources : compiled_source list) =
  List.fold_left (fun acc c -> max acc (Compile.epoch c.compiled)) 0 sources

(* Batched conjunction, source-major: evaluate the whole pending batch
   against source 1, drop the requests it denied (recording the denial),
   and hand only the survivors to source 2, and so on. Element-wise this
   answers exactly what [evaluate] answers — a request's first
   denying source (in source order) is the one reported — while each
   source sees one amortized [Compile.eval_many] pass instead of
   per-request calls. Answers are scattered back by original index, so
   batch order is preserved. *)
let evaluate_compiled_many ?obs (sources : compiled_source list)
    (requests : Types.request array) : combined_decision array =
  let n = Array.length requests in
  if n = 0 then [||]
  else if sources = [] then
    Array.make n (Deny { source = "(none)"; reason = Eval.No_applicable_grant })
  else begin
    let results = Array.make n Permit in
    let pending = Array.init n (fun i -> i) in
    let n_pending = ref n in
    List.iter
      (fun c ->
        if !n_pending > 0 then begin
          let batch = Array.init !n_pending (fun k -> requests.(pending.(k))) in
          let decisions =
            Eval.observed_many_with ?obs ~source:c.origin.name
              ~eval_many:(Compile.eval_many c.compiled)
              batch
          in
          let kept = ref 0 in
          Array.iteri
            (fun k d ->
              match d with
              | Eval.Permit ->
                pending.(!kept) <- pending.(k);
                incr kept
              | Eval.Deny reason ->
                results.(pending.(k)) <- Deny { source = c.origin.name; reason })
            decisions;
          n_pending := !kept
        end)
      sources;
    results
  end
