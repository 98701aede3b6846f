(* Host-side measurement helpers: a monotonic nanosecond clock, order
   statistics, and the fixed calibration loop that reads host speed. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* [q]-quantile of the sorted array by linear interpolation between
   closest ranks (the rule Python's [statistics.quantiles] uses with
   [method='inclusive']). *)
let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let quantile values q =
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  quantile_sorted sorted q

let median values = quantile values 0.5

(* A fixed integer workload touching no project code; its time tracks
   host speed only. On a shared host that speed can drift by a quarter
   or more within minutes and every timing moves with it, so timings are
   scaled by this loop measured around the work they time (see
   [reference_calibration_ns]). *)
let calibration_ns () =
  let t0 = now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 4_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let dt = now_ns () -. t0 in
  if !x = 0 then dt +. 1.0 else dt

(* The reference host every timing is reported for: one on which
   [calibration_ns] takes 15 ms, the undisturbed speed of the 2-vCPU VM
   the benchmark was defined on. A time [t] measured while the loop took
   [c] is reported as [t *. reference_calibration_ns /. c]. *)
let reference_calibration_ns = 15e6

(* Run [f] between two calibrations; returns its result and the factor
   that scales its timings to the reference host. *)
let calibrated f =
  let before = calibration_ns () in
  let result = f () in
  let after = calibration_ns () in
  (result, reference_calibration_ns /. ((before +. after) /. 2.0))

(* A growable float buffer: appends never allocate except on growth, so
   recording a sample does not perturb the allocation being measured. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
