(* The wide-event pipeline.

   Spans answer "where did the time go"; metrics answer "how often".
   Wide events answer "what exactly happened, in what order, on behalf
   of which request" — the substrate the online safety monitor consumes.
   Every layer that touches [Obs] emits structured events here: the
   gatekeeper's authentication outcomes, every authorization decision
   with its policy epoch, cache hits with the epoch they answered under,
   journal appends, crash/recover transitions, injected network and disk
   faults.

   Each event carries an optional correlation id threaded from the
   originating request. The bus keeps an ambient correlation stack,
   mirroring the span tracer's scope stack: the whole system is
   single-threaded over one simulation engine, so the entry point pushes
   the request's id and everything emitted while processing that request
   inherits it — including work resumed inside network-delivery
   callbacks, which re-establish the id explicitly.

   The bus itself is policy-free: attributes are strings, listeners are
   plain callbacks. The safety monitor is just one subscriber. *)

type t = {
  at : Grid_sim.Clock.time;
  corr : string option;  (* correlation id of the originating request *)
  layer : string;        (* emitting component: "gram", "callout", ... *)
  kind : string;         (* event name: "authz.decision", "job.created" *)
  attrs : (string * string) list;
}

type bus = {
  mutable listeners : (t -> unit) list;
  mutable corr_stack : string list;  (* innermost first *)
  mutable next_corr : int;
}

let create_bus () =
  { listeners = []; corr_stack = []; next_corr = 0 }

let subscribe bus f = bus.listeners <- f :: bus.listeners

(* --- Correlation ids --------------------------------------------------- *)

let fresh_corr bus =
  let n = bus.next_corr in
  bus.next_corr <- n + 1;
  Printf.sprintf "c-%06d" n

let current_corr bus =
  match bus.corr_stack with [] -> None | c :: _ -> Some c

let with_corr bus corr f =
  bus.corr_stack <- corr :: bus.corr_stack;
  Fun.protect
    ~finally:(fun () ->
      bus.corr_stack <-
        (match bus.corr_stack with
        | c :: rest when String.equal c corr -> rest
        | stack -> stack))
    f

(* --- Emission ---------------------------------------------------------- *)

let emit bus ~at ?corr ~layer ~kind attrs =
  let corr = match corr with Some _ as c -> c | None -> current_corr bus in
  let event = { at; corr; layer; kind; attrs } in
  List.iter (fun f -> f event) (List.rev bus.listeners)

(* --- Inspection -------------------------------------------------------- *)

let attr event name = List.assoc_opt name event.attrs

let attr_int event name =
  match attr event name with None -> None | Some v -> int_of_string_opt v

let attr_float event name =
  match attr event name with None -> None | Some v -> float_of_string_opt v

let pp ppf e =
  Fmt.pf ppf "%10.3fs %-9s %-20s %-24s%s" e.at
    (match e.corr with Some c -> c | None -> "-")
    e.layer e.kind
    (match e.attrs with
    | [] -> ""
    | attrs ->
      " " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))
