(* Virtual time.

   All timestamps in the system are simulated seconds since the start of the
   run, carried as floats. Certificate lifetimes, job walltimes, scheduler
   quanta and network latencies are all expressed in this unit. *)

type time = float

let zero = 0.0
let add = ( +. )
let ( <= ) a b = Float.compare a b <= 0
let minutes m = m *. 60.0
let hours h = h *. 3600.0
let days d = d *. 86400.0
