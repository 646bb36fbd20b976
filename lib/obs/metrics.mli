(** A metrics registry: named counters, gauges, and histograms.

    Instrumented components look their metrics up by name with
    find-or-create semantics ({!counter} twice with the same name returns
    the same counter), so independently-written layers share one registry —
    in practice the one owned by each {!S4o_device.Engine} — and a single
    {!snapshot} sees them all. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

(** Find-or-create. Raises [Invalid_argument] if [name] is already
    registered as a different metric type. *)
val counter : t -> string -> counter

val gauge : t -> string -> gauge
val histogram : ?buckets:float array -> t -> string -> histogram

(** {1 Counters: monotone event counts} *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {1 Gauges: last-written value, with peak tracking} *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** Largest value ever {!set} (0 if never set). *)
val gauge_peak : gauge -> float

(** {1 Histograms: distributions of observed samples} *)

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

(** {b Empty-histogram convention}: every scalar readout of a histogram
    with no observations is [0] — [hist_mean], [hist_max], [hist_min],
    [quantile], and each field of {!summary} — never the accumulator
    initialisers ([infinity]/[neg_infinity]) they start from. Callers can
    render a fresh registry without guarding every read. *)

val hist_mean : histogram -> float
val hist_max : histogram -> float
val hist_min : histogram -> float

(** [quantile h q] is the [q]-quantile ([0 ≤ q ≤ 1]) of the samples
    observed so far, with linear interpolation between closest ranks; [0] if
    the histogram is empty. Raises [Invalid_argument] outside [\[0, 1\]].
    A histogram keeps its first 4096 samples, so up to that count quantiles
    are exact, not bucket-interpolated. Past it, each new sample replaces a
    kept one with the probability that keeps them a uniform sample of all
    observed (reservoir sampling, with a fixed seed, so equal sequences give
    equal quantiles): its memory stays flat, and quantiles become
    estimates. Counts, sums, extremes and buckets stay exact. *)
val quantile : histogram -> float -> float

type hist_summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(** The standard latency-style readout (count/mean/min/max/p50/p90/p99) in
    one pass; zeros if the histogram is empty. *)
val summary : histogram -> hist_summary

(** [(upper_bound, count)] per bucket; the last bucket's bound is
    [infinity]. *)
val hist_buckets : histogram -> (float * int) list

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of { last : float; peak : float }
  | Histogram_v of { count : int; sum : float; mean : float; max : float }

(** All registered metrics in registration order. *)
val snapshot : t -> (string * value) list

(** The full-fidelity export {!Prom} (and any other exposition format)
    renders from: everything {!value} carries plus histogram min/max,
    per-bucket counts, and the standard quantiles. *)
type export =
  | Counter_x of int
  | Gauge_x of { last : float; peak : float }
  | Histogram_x of {
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : (float * int) list;  (** Per-bucket (upper bound, count). *)
      quantiles : (float * float) list;  (** [(q, value)] for p50/p90/p99. *)
    }

(** All registered metrics, in registration order, with full detail. *)
val export : t -> (string * export) list

(** Zero every metric (registrations survive). *)
val reset : t -> unit

val pp : Format.formatter -> t -> unit
