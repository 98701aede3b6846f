(** The observability handle threaded through the request path: one
    metrics registry + one span tracer + the clock that timestamps both.

    Components receive an [Obs.t] (usually the testbed's, created from the
    simulation engine) and record through the convenience functions here;
    {!noop} is an always-disabled handle for call sites that were built
    without observability, so instrumentation never needs [Option]
    plumbing.

    Every span closed through {!with_span}/{!finish_span} also feeds the
    [stage_seconds{stage=<name>}] latency histogram, which is where the
    per-stage breakdown (callout vs policy evaluation vs LRM) comes
    from. *)

type t

val create : ?clock:(unit -> Grid_sim.Clock.time) -> unit -> t
(** [clock] defaults to a constant 0 (durations all zero); pass the
    engine clock for meaningful timings. *)

val of_engine : Grid_sim.Engine.t -> t
(** Clocked by [Grid_sim.Engine.now]: deterministic timestamps. *)

val noop : t
(** Disabled: records nothing, costs a branch. *)

val scoped : t -> (string * string) list -> t
(** A handle sharing [t]'s registry, tracer, bus and clock that stamps
    the given attributes on every event it emits and appends them as
    labels to every metric it records — e.g.
    [scoped obs [("resource", name)]] gives one fleet member's whole
    emission stream its per-resource dimension. Explicit event
    attributes and metric labels win over scope ones; nesting composes
    with the inner scope winning. A disabled handle is returned
    unchanged. *)

val enabled : t -> bool
val metrics : t -> Metrics.t
val tracer : t -> Span.t

val events : t -> Event.bus
(** The wide-event bus: the {!Monitor} and other consumers subscribe
    here. *)

(** {1 Wide events and correlation} *)

val emit : t -> ?corr:string -> layer:string -> string -> (string * string) list -> unit
(** [emit t ~layer kind attrs] publishes a wide event stamped with the
    clock and the ambient correlation id (overridable via [corr]). A
    disabled handle emits nothing. *)

val fresh_correlation : t -> string
(** Mint a correlation id for a new request. *)

val correlation : t -> string option
(** The ambient correlation id, if inside {!with_correlation}. *)

val with_correlation : t -> corr:string -> (unit -> 'a) -> 'a
(** Make [corr] the ambient correlation id for the callback: every
    {!emit} underneath inherits it. Network-delivery continuations use
    this to re-establish their request's id. *)

val ensure_correlation : t -> (unit -> 'a) -> 'a
(** Run under the ambient correlation id, minting a fresh one only when
    none is established — how direct (non-networked) entry points get
    correlated events without double-tagging networked requests. *)

(** {1 Metrics shorthands} *)

val incr : t -> ?by:float -> ?labels:Metrics.labels -> string -> unit
val set_gauge : t -> ?labels:Metrics.labels -> string -> float -> unit
val observe : t -> ?labels:Metrics.labels -> string -> float -> unit

(** {1 Spans} *)

val with_span : t -> ?attrs:(string * string) list -> string -> (Span.span -> 'a) -> 'a
(** Run the callback inside a scoped span; on close, record its duration
    into [stage_seconds{stage=<name>}]. *)

val start_span : t -> ?attrs:(string * string) list -> string -> Span.span
(** Detached span (see {!Span.start}); close with {!finish_span}. *)

val finish_span : t -> Span.span -> unit

val in_scope : t -> Span.span -> (unit -> 'a) -> 'a

val stage_metric : string
(** ["stage_seconds"], the histogram fed by span closure. *)

(** {1 Reporting} *)

val pp_summary : t Fmt.t
(** Counters and gauges, then the per-stage latency table — the snapshot
    the examples print after a scenario. *)
