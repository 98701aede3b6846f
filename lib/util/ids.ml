(* Generation of unique, human-readable identifiers.

   Jobs, credentials, leases and audit records all need identifiers that are
   unique within a run and stable across runs with the same seed (the
   simulator is deterministic, so identifiers must be too — no wall-clock or
   PID entropy). *)

type t = string

let counter = ref 0

let reset () = counter := 0

let fresh prefix =
  incr counter;
  Printf.sprintf "%s-%06d" prefix !counter

let job () = fresh "job"
let lease () = fresh "lease"
let request () = fresh "req"
let contact () = fresh "jmi"
