(** Metrics registry: counters, gauges and fixed-bucket latency histograms,
    keyed by name + label set.

    The registry is the quantitative half of [Grid_obs]: every component on
    the authorization critical path (gatekeeper, job manager, callout,
    policy evaluation, LRM) records into one registry, and the result is
    exposed as Prometheus-style text or JSON. Label sets are canonicalised
    (sorted by key), so [[("a","1");("b","2")]] and [[("b","2");("a","1")]]
    address the same series. A name identifies exactly one metric kind;
    re-registering it as a different kind raises [Invalid_argument]. *)

type t

type labels = (string * string) list

val create : unit -> t

(** {1 Recording} *)

val inc : t -> ?by:float -> ?labels:labels -> string -> unit
(** Increment a counter (default by 1). [by] must be non-negative. *)

val set : t -> ?labels:labels -> string -> float -> unit
(** Set a gauge. *)

val observe : t -> ?buckets:float array -> ?labels:labels -> string -> float -> unit
(** Record a histogram observation. [buckets] (strictly increasing upper
    bounds, inclusive) applies on first registration of the series;
    defaults to latency buckets in (simulated) seconds, 1 ms .. 10 min. *)

(** {1 Reading} *)

val counter_value : t -> ?labels:labels -> string -> float
(** 0 when the series does not exist. *)

val counter_total : t -> string -> float
(** Sum of a counter over all its label sets. *)

val gauge_value : t -> string -> float

type summary = {
  count : int;
  sum : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** Quantiles are estimated by linear interpolation within buckets and
    clamped to the largest observed value. *)

val histogram_summary : t -> ?labels:labels -> string -> summary option

(** {1 Exposition} *)

type data =
  | Counter of float
  | Gauge of float
  | Histogram of {
      summary : summary;
      buckets : (float * int) list;  (** cumulative, (upper bound, count) *)
    }

type series = {
  series_name : string;
  series_labels : labels;
  series_data : data;
}

val dump : t -> series list
(** All series, sorted by name then labels: the stable exposition order. *)

val to_prometheus : t -> string
val to_json : t -> string
