(* No knob.mli: the check reads this unit's exports from the signature
   the compiler inferred for it. bin/main.ml passes [?label] but never
   [?size], and never uses [spare]: the check names both. *)

let make ?(size = 1) ?(label = "knob") () = Printf.sprintf "%s:%d" label size
let spare = 0
