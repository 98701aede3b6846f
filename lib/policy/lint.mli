(** Policy lint: conservative static diagnosis of policy that parses but
    cannot work — unsatisfiable clauses, subsumed (dead) clauses,
    all-action grants, duplicated statements. *)

type severity = Warning | Error_

type finding = {
  severity : severity;
  statement_index : int;
  message : string;
}

val finding_to_string : finding -> string

val clause_unsatisfiable : Types.clause -> string option
(** Proof of unsatisfiability, if one is found (conservative). *)

val lint : Types.t -> finding list

val has_errors : finding list -> bool
