(* Deterministic pseudo-random numbers (SplitMix64).

   Workload generators and the network-latency model need randomness that is
   reproducible across runs; the OCaml stdlib [Random] state is global and
   easily perturbed, so we carry explicit state. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

(* SplitMix64 step: well-distributed, tiny, and easy to audit. *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))
