(** Windowed telemetry time-series: the time dimension of the metrics
    layer.

    A {!t} holds, per named metric, a bounded ring of {e cycle-windowed
    rollups} — count / sum / min / max plus a log-bucketed histogram per
    window — so tail latency (p50/p99/p999) is reportable {e over time},
    not just end-of-run. All windows share one grid anchored at cycle 0
    with a fixed width; closing is lazy (each {!observe} first closes
    any windows the sample has moved past, empty windows included, so
    the series stays contiguous), and {!close_upto} closes the rest
    before an export. When the ring wraps, the oldest window folds into a
    single {e evicted} aggregate rather than being lost, preserving the
    conservation invariant

    {[ evicted + sum-of-ring + open = whole-run totals ]}

    exactly, for both counts and sums.

    Timestamps are simulation cycles and every exported value is an
    integer, so {!json_string} is byte-stable for a fixed capture.

    This module subsumes the simple [Stats.Series] interval accumulator
    for observability use: that one keeps every bucket forever and only
    a float sum; this one is bounded and carries full distribution
    shape. *)

type t

type metric
(** Handle to one named metric inside a {!t} (avoids the name hash on
    hot paths; obtain with {!metric}). *)

type rollup = {
  r_start : int;  (** first cycle of the window *)
  r_count : int;
  r_sum : int;
  r_min : int;  (** 0 when the window saw no samples *)
  r_max : int;
  r_p50 : int;
  r_p90 : int;
  r_p99 : int;
  r_p999 : int;  (** bucket-resolution percentiles (±~3%) *)
}

val create : ?capacity:int -> window:int -> unit -> t
(** [create ~window ()] makes a series with [window]-cycle windows and a
    ring of [capacity] (default 128) retained windows per metric. Raises
    [Invalid_argument] unless both are positive. *)

val window : t -> int
val capacity : t -> int

val metric : t -> string -> metric
(** Get or create the named metric. *)

val observe : t -> now:int -> string -> int -> unit
(** Record one sample (clamped at 0) at cycle [now]. Closes any windows
    that end at or before [now] first. Samples must arrive in
    non-decreasing cycle order per metric — simulation time only moves
    forward. *)

val close_upto : t -> int -> unit
(** Close every metric's windows ending at or before the given cycle
    (empty windows included). Idempotent. *)

val names : t -> string list
(** Registered metric names, sorted. *)

val rollups : t -> string -> rollup list
(** Retained (ring) windows, oldest first; [[]] for unknown metrics. *)

val total_count : t -> string -> int
val total_sum : t -> string -> int
(** Whole-run totals — every sample ever observed, including evicted and
    open-window ones. *)

val open_count : t -> string -> int
(** Samples in the still-open window. *)

val closed : t -> string -> int
(** Windows ever closed (retained + evicted). *)

val evicted : t -> string -> int * int * int
(** [(windows, count, sum)] folded out of the ring so far. *)

val json_string : t -> string
(** Byte-stable document:
    [{"window", "capacity", "metrics": [{"name", "total_count",
    "total_sum", "evicted_windows", "evicted_count", "evicted_sum",
    "open_count", "open_sum", "windows": [{"start", "count", "sum",
    "min", "max", "p50", "p90", "p99", "p999"}, ...]}, ...]}]
    with metrics sorted by name. *)

val write_json : t -> string -> unit
