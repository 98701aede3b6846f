(* The observability handle. *)

type t = {
  on : bool;
  metrics : Metrics.t;
  tracer : Span.t;
  events : Event.bus;
  clock : unit -> Grid_sim.Clock.time;
  (* Static attributes stamped on every event (and appended as labels to
     every metric) recorded through this handle — how a fleet member's
     whole emission stream gets its [resource=<name>] dimension without
     threading the name through every layer. *)
  extra : (string * string) list;
}

let create ?(clock = fun () -> 0.0) () =
  { on = true;
    metrics = Metrics.create ();
    tracer = Span.create ();
    events = Event.create_bus ();
    clock;
    extra = [] }

let of_engine engine = create ~clock:(fun () -> Grid_sim.Engine.now engine) ()

let noop =
  { on = false;
    metrics = Metrics.create ();
    tracer = Span.create ();
    events = Event.create_bus ();
    clock = (fun () -> 0.0);
    extra = [] }

(* Explicit attributes win over scope attributes, and an inner scope wins
   over an outer one — a handle never overrides what a call site said. *)
let under explicit extra =
  explicit @ List.filter (fun (k, _) -> not (List.mem_assoc k explicit)) extra

let scoped t attrs =
  if (not t.on) || attrs = [] then t else { t with extra = under attrs t.extra }

let enabled t = t.on
let metrics t = t.metrics
let tracer t = t.tracer
let events t = t.events
(* --- Wide events and correlation --------------------------------------- *)

let emit t ?corr ~layer kind attrs =
  if t.on then
    let attrs = match t.extra with [] -> attrs | extra -> under attrs extra in
    Event.emit t.events ~at:(t.clock ()) ?corr ~layer ~kind attrs

let fresh_correlation t = Event.fresh_corr t.events
let correlation t = Event.current_corr t.events

let with_correlation t ~corr f =
  if not t.on then f () else Event.with_corr t.events corr f

(* Direct entry points may be the outermost frame (no networked request
   minted an id): give their emissions a correlation of their own. *)
let ensure_correlation t f =
  if not t.on then f ()
  else
    match Event.current_corr t.events with
    | Some _ -> f ()
    | None -> Event.with_corr t.events (Event.fresh_corr t.events) f

let merge_labels t labels =
  match (t.extra, labels) with
  | [], labels -> labels
  | extra, None -> Some extra
  | extra, Some ls -> Some (under ls extra)

let incr t ?by ?labels name =
  if t.on then Metrics.inc t.metrics ?by ?labels:(merge_labels t labels) name

let set_gauge t ?labels name v =
  if t.on then Metrics.set t.metrics ?labels:(merge_labels t labels) name v

let observe t ?labels name v =
  if t.on then Metrics.observe t.metrics ?labels:(merge_labels t labels) name v

let stage_metric = "stage_seconds"

let record_stage t span =
  match Span.duration span with
  | Some d ->
    Metrics.observe t.metrics ~labels:[ ("stage", span.Span.name) ] stage_metric d
  | None -> ()

let with_span t ?attrs name f =
  if not t.on then f Span.null
  else begin
    let span = Span.enter t.tracer ~at:(t.clock ()) ?attrs name in
    Fun.protect
      ~finally:(fun () ->
        Span.exit t.tracer span ~at:(t.clock ());
        record_stage t span)
      (fun () -> f span)
  end

let start_span t ?attrs name =
  if not t.on then Span.null
  else Span.start t.tracer ~at:(t.clock ()) ?attrs name

let finish_span t span =
  if t.on && not (span == Span.null) then begin
    Span.finish span ~at:(t.clock ());
    record_stage t span
  end

let in_scope t span f = if not t.on then f () else Span.in_scope t.tracer span f

let pp_summary ppf t =
  let scalars =
    List.filter
      (fun (s : Metrics.series) ->
        match s.Metrics.series_data with
        | Metrics.Counter _ | Metrics.Gauge _ -> true
        | Metrics.Histogram _ -> false)
      (Metrics.dump t.metrics)
  in
  let pp_scalar ppf (s : Metrics.series) =
    match s.Metrics.series_data with
    | Metrics.Counter v | Metrics.Gauge v ->
      Fmt.pf ppf "  %-66s %10.0f"
        (s.Metrics.series_name
        ^ (match s.Metrics.series_labels with
          | [] -> ""
          | labels ->
            "{"
            ^ String.concat ","
                (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
            ^ "}"))
        v
    | Metrics.Histogram _ -> ()
  in
  Fmt.pf ppf "@[<v>";
  if scalars <> [] then begin
    Fmt.pf ppf "counters & gauges:@,%a@," (Fmt.list pp_scalar) scalars
  end;
  let stages = Span.summarize t.tracer in
  if stages <> [] then begin
    Fmt.pf ppf "per-stage latency (simulated seconds):@,";
    Fmt.pf ppf "  %-28s %8s %12s %12s %12s@," "stage" "count" "total" "mean" "max";
    List.iter
      (fun (name, st) ->
        Fmt.pf ppf "  %-28s %8d %12.4f %12.4f %12.4f@," name st.Span.stage_count
          st.Span.stage_total
          (st.Span.stage_total /. float_of_int st.Span.stage_count)
          st.Span.stage_max)
      stages
  end;
  Fmt.pf ppf "@]"
