(* Metrics registry.

   One flat table of series keyed by (metric name, canonical label set).
   Counters and gauges are a mutable float; histograms are fixed-bucket
   with inclusive upper bounds, plus sum/count/max so quantile estimates
   can be clamped to reality. Everything is O(1) per recording (histogram
   recording is O(#buckets) in the worst case), because these calls sit on
   the job-submission critical path. *)

type labels = (string * string) list

type histogram = {
  bounds : float array;            (* strictly increasing upper bounds *)
  counts : int array;              (* length = Array.length bounds + 1; last is +Inf *)
  mutable h_sum : float;
  mutable h_count : int;
  mutable h_max : float;
}

type cell =
  | Counter_cell of { mutable c : float }
  | Gauge_cell of { mutable g : float }
  | Histogram_cell of histogram

type entry = {
  e_name : string;
  e_labels : labels;
  cell : cell;
}

type t = { table : (string, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* 1 ms .. 10 simulated minutes: network hops are ~5 ms, job walltimes are
   minutes. Sub-millisecond stages land in the first bucket and summarise
   as ~0, which is the honest answer inside a discrete-event simulator. *)
let default_buckets =
  [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0;
     10.0; 30.0; 60.0; 120.0; 300.0; 600.0 |]

let canonical labels =
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

let kind_name = function
  | Counter_cell _ -> "counter"
  | Gauge_cell _ -> "gauge"
  | Histogram_cell _ -> "histogram"

let find_or_create t name labels make check =
  let labels = canonical labels in
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some e -> begin
    match check e.cell with
    | Some cell -> cell
    | None ->
      Printf.ksprintf invalid_arg "Metrics: %s is a %s, not re-registrable" name
        (kind_name e.cell)
  end
  | None ->
    let cell = make () in
    Hashtbl.replace t.table k { e_name = name; e_labels = labels; cell };
    cell

(* --- Recording -------------------------------------------------------- *)

let inc t ?(by = 1.0) ?(labels = []) name =
  if by < 0.0 then invalid_arg "Metrics.inc: negative increment";
  let cell =
    find_or_create t name labels
      (fun () -> Counter_cell { c = 0.0 })
      (function Counter_cell _ as c -> Some c | _ -> None)
  in
  match cell with Counter_cell r -> r.c <- r.c +. by | _ -> assert false

let set t ?(labels = []) name v =
  let cell =
    find_or_create t name labels
      (fun () -> Gauge_cell { g = v })
      (function Gauge_cell _ as c -> Some c | _ -> None)
  in
  match cell with Gauge_cell r -> r.g <- v | _ -> assert false

let validate_buckets bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.observe: empty buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Metrics.observe: buckets must be strictly increasing")
    bounds

let observe t ?(buckets = default_buckets) ?(labels = []) name v =
  let cell =
    find_or_create t name labels
      (fun () ->
        validate_buckets buckets;
        Histogram_cell
          { bounds = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            h_sum = 0.0;
            h_count = 0;
            h_max = neg_infinity })
      (function Histogram_cell _ as c -> Some c | _ -> None)
  in
  match cell with
  | Histogram_cell h ->
    let n = Array.length h.bounds in
    let i = ref 0 in
    while !i < n && v > h.bounds.(!i) do incr i done;
    h.counts.(!i) <- h.counts.(!i) + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_count <- h.h_count + 1;
    if v > h.h_max then h.h_max <- v
  | _ -> assert false

(* --- Reading ----------------------------------------------------------- *)

let lookup t name labels =
  Hashtbl.find_opt t.table (key name (canonical labels))

let counter_value t ?(labels = []) name =
  match lookup t name labels with
  | Some { cell = Counter_cell r; _ } -> r.c
  | Some _ | None -> 0.0

let counter_total t name =
  Hashtbl.fold
    (fun _ e acc ->
      match e.cell with
      | Counter_cell r when String.equal e.e_name name -> acc +. r.c
      | _ -> acc)
    t.table 0.0

let gauge_value t name =
  match lookup t name [] with
  | Some { cell = Gauge_cell r; _ } -> r.g
  | Some _ | None -> 0.0

type summary = {
  count : int;
  sum : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Rank-based estimate: find the bucket holding the q-th observation and
   interpolate linearly inside it, then clamp to the observed maximum (an
   all-zero histogram reports 0, not half the first bucket). *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank = q *. float_of_int h.h_count in
    let n = Array.length h.bounds in
    let rec go i cumulative =
      if i > n then h.h_max
      else
        let here = cumulative + h.counts.(i) in
        if float_of_int here >= rank && h.counts.(i) > 0 then begin
          let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
          let hi = if i < n then h.bounds.(i) else h.h_max in
          let frac = (rank -. float_of_int cumulative) /. float_of_int h.counts.(i) in
          lo +. (frac *. (hi -. lo))
        end
        else go (i + 1) here
    in
    Float.min (go 0 0) h.h_max
  end

let summary_of h =
  { count = h.h_count;
    sum = h.h_sum;
    max = (if h.h_count = 0 then 0.0 else h.h_max);
    p50 = quantile h 0.5;
    p90 = quantile h 0.9;
    p99 = quantile h 0.99 }

let histogram_summary t ?(labels = []) name =
  match lookup t name labels with
  | Some { cell = Histogram_cell h; _ } -> Some (summary_of h)
  | Some _ | None -> None

(* --- Exposition -------------------------------------------------------- *)

type data =
  | Counter of float
  | Gauge of float
  | Histogram of {
      summary : summary;
      buckets : (float * int) list;
    }

type series = {
  series_name : string;
  series_labels : labels;
  series_data : data;
}

let cumulative_buckets h =
  let n = Array.length h.bounds in
  let acc = ref 0 in
  List.init (n + 1) (fun i ->
      acc := !acc + h.counts.(i);
      ((if i < n then h.bounds.(i) else infinity), !acc))

let dump t =
  let all =
    Hashtbl.fold
      (fun _ e acc ->
        let data =
          match e.cell with
          | Counter_cell r -> Counter r.c
          | Gauge_cell r -> Gauge r.g
          | Histogram_cell h ->
            Histogram { summary = summary_of h; buckets = cumulative_buckets h }
        in
        { series_name = e.e_name; series_labels = e.e_labels; series_data = data } :: acc)
      t.table []
  in
  List.sort
    (fun a b ->
      match String.compare a.series_name b.series_name with
      | 0 -> compare a.series_labels b.series_labels
      | c -> c)
    all

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v)) labels)
    ^ "}"

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let last_name = ref "" in
  List.iter
    (fun s ->
      let type_line kind =
        if not (String.equal !last_name s.series_name) then begin
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.series_name kind);
          last_name := s.series_name
        end
      in
      match s.series_data with
      | Counter v ->
        type_line "counter";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" s.series_name (render_labels s.series_labels)
             (float_repr v))
      | Gauge v ->
        type_line "gauge";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" s.series_name (render_labels s.series_labels)
             (float_repr v))
      | Histogram { summary; buckets } ->
        type_line "histogram";
        List.iter
          (fun (le, count) ->
            let le_str = if Float.is_integer le && le < infinity then Printf.sprintf "%.1f" le
              else if le = infinity then "+Inf"
              else Printf.sprintf "%g" le
            in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" s.series_name
                 (render_labels (s.series_labels @ [ ("le", le_str) ]))
                 count))
          buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %g\n" s.series_name (render_labels s.series_labels)
             summary.sum);
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" s.series_name (render_labels s.series_labels)
             summary.count))
    (dump t);
  Buffer.contents buf

(* Hand-rolled JSON: the toolchain has no JSON library and the shapes here
   are fixed. *)
let json_string v = "\"" ^ escape_label_value v ^ "\""

let json_labels labels =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) labels)
  ^ "}"

let json_float v =
  if Float.is_nan v then "null"
  else if v = infinity then "\"+Inf\""
  else if v = neg_infinity then "\"-Inf\""
  else float_repr v

let to_json t =
  let series_json s =
    let common =
      Printf.sprintf "\"name\":%s,\"labels\":%s" (json_string s.series_name)
        (json_labels s.series_labels)
    in
    match s.series_data with
    | Counter v -> Printf.sprintf "{%s,\"type\":\"counter\",\"value\":%s}" common (json_float v)
    | Gauge v -> Printf.sprintf "{%s,\"type\":\"gauge\",\"value\":%s}" common (json_float v)
    | Histogram { summary; buckets } ->
      Printf.sprintf
        "{%s,\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"buckets\":[%s]}"
        common summary.count (json_float summary.sum) (json_float summary.max)
        (json_float summary.p50) (json_float summary.p90) (json_float summary.p99)
        (String.concat ","
           (List.map
              (fun (le, count) ->
                Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_float le) count)
              buckets))
  in
  "{\"series\":[" ^ String.concat "," (List.map series_json (dump t)) ^ "]}"
