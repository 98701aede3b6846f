(** Conjunctive combination of policies from multiple sources
    (resource owner AND virtual organization). *)

type source = {
  name : string;
  policy : Types.t;
}

type combined_decision =
  | Permit
  | Deny of { source : string; reason : Eval.reason }

val source : name:string -> Types.t -> source

val decision_to_string : combined_decision -> string
val is_permit : combined_decision -> bool

val evaluate : source list -> Types.request -> combined_decision
(** Permit iff every source permits; the first denial is reported. An empty
    source list fails closed. *)

val evaluate_all : source list -> Types.request -> (string * Eval.decision) list
(** Per-source decisions, for explanation output. *)

(** {1 Compiled sources}

    The combination the flat-file PEP runs in production: each source's
    policy is compiled once ({!Compile}) and the conjunction evaluates
    through the index. Decisions are identical to {!evaluate}. *)

type compiled_source = {
  origin : source;
  compiled : Compile.t;
}

val compile_sources : source list -> compiled_source list

val epoch_of : compiled_source list -> int
(** The newest policy epoch across the sources (0 when empty); bumps
    whenever any source is recompiled. *)

val evaluate_compiled_many :
  ?obs:Grid_obs.Obs.t ->
  compiled_source list ->
  Types.request array ->
  combined_decision array
(** Element-wise identical to mapping {!evaluate} over the uncompiled
    sources, in request order, evaluated source-major: each source
    answers one amortized {!Compile.eval_many} pass over the requests
    every earlier source permitted; the first denying source (in source
    order) is the one reported. [obs] spans each source's pass
    (["policy.eval"]) and counts its decisions in [policy_eval_total]. *)
