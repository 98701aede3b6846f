(* The flat-file policy evaluation point.

   The paper's prototype "experimented with policies written in plain text
   files on the resource[,] includ[ing] both local resource and VO
   policies". This PEP evaluates a callout query against a list of named
   policy sources with conjunctive combination and maps the policy
   decision onto callout errors.

   Evaluation runs through the compiled policy index ([Compile]): each
   source is compiled once when the PEP is built, and [Compiled.reload]
   recompiles — bumping the policy epoch that decision caches key on.
   [reference] keeps the uncompiled scan for differential tests and the
   T16 benchmark baseline. *)

let decision_to_callout = function
  | Grid_policy.Combine.Permit -> Callout.permitted
  | Grid_policy.Combine.Deny { source; reason } ->
    Error
      (Callout.Denied
         (Printf.sprintf "%s: %s" source (Grid_policy.Eval.reason_to_string reason)))

(* Denial interning: the hot path answers the same few distinct
   (source, reason) denials over and over, so the message is rendered
   once per distinct combined decision and the resulting callout
   decision value shared thereafter — structurally identical to what
   [decision_to_callout] would build fresh. The table is capped (an
   adversarial reason stream cannot grow it without bound) and reset on
   reload, since a new policy makes old denial shapes unreachable. *)
let intern_cap = 1024

let intern_decision (tbl : (Grid_policy.Combine.combined_decision, Callout.decision) Hashtbl.t)
    = function
  | Grid_policy.Combine.Permit -> Callout.permitted
  | Grid_policy.Combine.Deny _ as d -> begin
    match Hashtbl.find_opt tbl d with
    | Some decision -> decision
    | None ->
      let decision = decision_to_callout d in
      if Hashtbl.length tbl < intern_cap then Hashtbl.add tbl d decision;
      decision
  end

module Compiled = struct
  type t = {
    obs : Grid_obs.Obs.t option;
    mutable sources : Grid_policy.Combine.compiled_source list;
    mutable epoch : int;
    interned : (Grid_policy.Combine.combined_decision, Callout.decision) Hashtbl.t;
  }

  (* An empty source list still gets a fresh epoch, so reloading a PEP
     to "no policy" cannot rewind the epoch a cache saw. *)
  let stamp sources =
    let e = Grid_policy.Combine.epoch_of sources in
    if e = 0 then Grid_policy.Compile.fresh_epoch () else e

  (* Every epoch change is announced on the event bus: the safety
     monitor dates its staleness window from this event, so it must be
     emitted at the instant the new compilation becomes answerable. *)
  let note_epoch ?(kind = "reload") t =
    match t.obs with
    | None -> ()
    | Some obs ->
      Grid_obs.Obs.emit obs ~layer:"pep" "policy.epoch"
        [ ("epoch", string_of_int t.epoch);
          ("sources", string_of_int (List.length t.sources));
          ("cause", kind) ]

  let create ?obs sources =
    let sources = Grid_policy.Combine.compile_sources sources in
    let t = { obs; sources; epoch = stamp sources; interned = Hashtbl.create 16 } in
    note_epoch ~kind:"create" t;
    t

  let epoch t = t.epoch

  let reload t sources =
    let sources = Grid_policy.Combine.compile_sources sources in
    t.sources <- sources;
    t.epoch <- stamp sources;
    Hashtbl.reset t.interned;
    note_epoch t

  let callout t : Callout.t =
   fun query ->
    intern_decision t.interned
      (Grid_policy.Combine.evaluate_compiled ?obs:t.obs t.sources
         (Callout.to_policy_request query))

  (* Native batch lane: structurally identical questions are collapsed
     once, up front, so the per-source pipeline and the denial interning
     each run once per *distinct* request rather than once per query —
     the dominant saving on the repetitive streams job managers emit.
     [Combine.evaluate_compiled_many] still sorts and groups what
     remains by subject. *)
  let batch t : Callout.Batch.t =
    let single = callout t in
    let many qs =
      let n = Array.length qs in
      if n = 0 then [||]
      else begin
        let requests = Array.map Callout.to_policy_request qs in
        let rep = Array.make n 0 in
        let seen : (Grid_policy.Types.request, int) Hashtbl.t =
          Hashtbl.create (min n 64)
        in
        let distinct_rev = ref [] in
        let count = ref 0 in
        for i = 0 to n - 1 do
          match Hashtbl.find_opt seen requests.(i) with
          | Some j -> rep.(i) <- j
          | None ->
            Hashtbl.add seen requests.(i) !count;
            rep.(i) <- !count;
            distinct_rev := requests.(i) :: !distinct_rev;
            incr count
        done;
        let distinct = Array.of_list (List.rev !distinct_rev) in
        let answers =
          Array.map (intern_decision t.interned)
            (Grid_policy.Combine.evaluate_compiled_many ?obs:t.obs t.sources distinct)
        in
        Array.init n (fun i -> answers.(rep.(i)))
      end
    in
    Callout.Batch.make ~single ~many
end

let of_sources ?obs (sources : Grid_policy.Combine.source list) : Callout.t =
  Compiled.callout (Compiled.create ?obs sources)

(* The pre-compilation evaluation path: scans every statement per query.
   The differential suite holds [of_sources] to this behaviour; bench T16
   measures the gap. *)
let reference (sources : Grid_policy.Combine.source list) : Callout.t =
 fun query ->
  decision_to_callout
    (Grid_policy.Combine.evaluate sources (Callout.to_policy_request query))

let of_policy ~name policy = of_sources [ Grid_policy.Combine.source ~name policy ]

(* Advice for policy-derived enforcement: the conjunction of the clauses
   that matched in each source. A permitted request has a matched clause
   in every source, so the concatenation is the full set of constraints
   the decision rested on — the enforcement layer can derive a sandbox
   envelope from it. Returns None when any source lacks a match (the
   request was not permitted, or the source grants via requirements
   only). *)
let advice (sources : Grid_policy.Combine.source list) : Callout.query -> Grid_policy.Types.clause option =
 fun query ->
  let request = Callout.to_policy_request query in
  let matched =
    List.map
      (fun (s : Grid_policy.Combine.source) ->
        (Grid_policy.Eval.explain s.Grid_policy.Combine.policy request)
          .Grid_policy.Eval.matched_clause)
      sources
  in
  if List.exists Option.is_none matched then None
  else Some (List.concat_map Option.get matched)

(* Parse policy files (already read into strings) into a PEP. A parse
   failure is an authorization *system* error at evaluation time: the PEP
   exists but cannot interpret its policy — it must fail closed without
   masquerading as a mere denial. *)
let of_texts (named_texts : (string * string) list) : Callout.t =
  let parsed =
    List.map
      (fun (name, text) ->
        match Grid_policy.Parse.parse_result text with
        | Ok policy -> begin
          match Grid_policy.Eval.validate policy with
          | Ok () -> Ok (Grid_policy.Combine.source ~name policy)
          | Error m -> Error (Printf.sprintf "policy %s invalid: %s" name m)
        end
        | Error m -> Error (Printf.sprintf "policy %s unparseable: %s" name m))
      named_texts
  in
  match
    List.find_map (function Error m -> Some m | Ok _ -> None) parsed
  with
  | Some message -> fun _ -> Error (Callout.System_error message)
  | None ->
    of_sources (List.filter_map (function Ok s -> Some s | Error _ -> None) parsed)
