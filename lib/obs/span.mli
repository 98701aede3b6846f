(** Span-based tracing: nested, timed intervals over the simulation clock.

    Where [Grid_sim.Trace] records flat component-to-component arrows
    (the paper's Figure 1/2 diagrams), spans carry structure: a parent,
    a start and end in simulated time, and free-form attributes. The
    request path uses them to answer "where did this submission spend its
    time" — gatekeeper vs callout vs policy evaluation vs LRM.

    The tracer keeps an explicit scope stack: spans opened with
    {!enter}/{!exit} (or [Obs.with_span]) nest automatically. The whole
    system is single-threaded over one simulation engine, so the stack
    discipline matches the synchronous call structure; asynchronous
    work (network hops, job lifetimes) uses detached spans via
    {!start}/{!finish}.

    Timestamps come from [Grid_sim.Clock] values supplied by the caller,
    so traces are as deterministic as the simulation that produced
    them. *)

type span = private {
  id : int;
  name : string;
  parent : int option;
  started_at : Grid_sim.Clock.time;
  mutable ended_at : Grid_sim.Clock.time option;
  mutable attrs : (string * string) list;
}

type t

val create : ?max_spans:int -> unit -> t
(** [max_spans] caps retention (default 100_000): beyond it, spans are
    counted in {!dropped} but not stored, bounding memory under sustained
    load. The cap never affects metric recording, which is external. *)

val null : span
(** Inert span handed out by disabled observers; never stored. *)

(* {1 Scoped spans} *)

val enter : t -> at:Grid_sim.Clock.time -> ?attrs:(string * string) list -> string -> span
(** Open a span as a child of the innermost open span and make it the
    current scope. *)

val exit : t -> span -> at:Grid_sim.Clock.time -> unit
(** Close a scoped span. Closes any deeper spans still open (defensive:
    an exception may have unwound past them). *)

val in_scope : t -> span -> (unit -> 'a) -> 'a
(** Re-establish an existing span as current scope for the duration of the
    callback, without touching its timestamps: how an asynchronous
    continuation (a network delivery) reparents its work under the
    request span. *)

(* {1 Detached spans} *)

val start : t -> at:Grid_sim.Clock.time -> ?attrs:(string * string) list -> string -> span
(** Start a span that is not pushed on the scope stack. Its parent is
    the innermost open span, if any. *)

val finish : span -> at:Grid_sim.Clock.time -> unit

(* {1 Inspection} *)

val set_attr : span -> string -> string -> unit
val duration : span -> float option
(** None while the span is open. *)

val spans : t -> span list
(** In start order. *)

val find : t -> name:string -> span list
val roots : t -> span list
val children : t -> span -> span list
val depth : t -> int
(** Currently open scoped spans. *)

val dropped : t -> int

type stage = {
  stage_count : int;
  stage_total : float;
  stage_max : float;
}

val summarize : t -> (string * stage) list
(** Completed spans grouped by name, sorted by name: the per-stage
    latency breakdown. *)

val to_chrome_json : t -> string
(** Export every closed span as a Chrome [trace_event] "X" (complete)
    event — [ts]/[dur] in microseconds of simulated time, attributes and
    the parent span id under [args]. The output loads directly into
    chrome://tracing or Perfetto ([gridctl trace export]). *)

val pp : t Fmt.t
(** Render the span forest, indented by depth, with durations. *)
