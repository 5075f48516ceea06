(** Measurement primitives: counters, gauges, log-bucketed histograms and
    windowed time series.

    Histograms use logarithmic bucketing with linear sub-buckets (HdrHistogram
    style) so percentiles over latencies spanning several orders of magnitude
    stay within ~3% relative error at O(1) memory. *)

(** Monotonic event counter. *)
module Counter : sig
  type t

  val create : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** Last-value gauge with min/max tracking. *)
module Gauge : sig
  type t

  val create : string -> t
  val name : t -> string
  val set : t -> float -> unit
  val value : t -> float
  val min : t -> float
  val max : t -> float

  val reset : t -> unit
  (** Back to the just-created state: value 0, min/max cleared. *)
end

(** Log-bucketed histogram of non-negative integer samples. *)
module Histogram : sig
  type t

  val create : string -> t
  val name : t -> string
  val record : t -> int -> unit
  (** Record one sample; negative samples are clamped to 0. *)

  val record_n : t -> int -> int -> unit
  (** [record_n h v n] records [v] with weight [n]. *)

  val count : t -> int
  val sum : t -> int
  val mean : t -> float
  val max_value : t -> int
  val min_value : t -> int
  (** Smallest recorded sample ([max_int] when empty). *)

  val percentile : t -> float -> int
  (** [percentile h p] for [p] in [\[0,100\]]. Returns 0 when empty. *)

  val count_le : t -> int -> int
  (** Samples recorded at or below [v], at bucket resolution (≤ ~3%
      relative slack, matching {!percentile}) — the cumulative read SLO
      attainment needs. *)

  val bucket_of : int -> int
  (** Bucket index a sample lands in (negative samples clamp to 0) —
      the grid exemplar stores share so retained samples align with the
      buckets percentiles are computed from. *)

  val bucket_value : int -> int
  (** Representative (midpoint) value of a bucket index. *)

  val bucket_count : int
  (** Number of buckets in the fixed grid. *)

  val nonzero_buckets : t -> (int * int) list
  (** Occupied [(bucket, count)] pairs, ascending bucket order — the
      compact view telemetry agents diff between harvests. *)

  val stddev : t -> float
  val reset : t -> unit

  val merge_into : src:t -> dst:t -> unit
  (** Add all of [src]'s buckets into [dst]. *)

  val stamp : t -> int
  (** A change stamp: {!record}, {!record_n}, {!reset} and {!merge_into}
      (on [dst]) each bump it, and nothing else does. While a
      histogram's stamp reads the same, none of its buckets, counts or
      sums moved — a reader that keeps the last stamp it saw can skip an
      unchanged histogram exactly. Its value means nothing beyond
      equality. *)
end

(** Fixed-interval time series, e.g. throughput per epoch. *)
module Series : sig
  type t

  val create : string -> interval:int -> t
  (** [interval] is the bucket width in simulator cycles. *)

  val record : t -> now:int -> float -> unit
  (** Accumulate a value into the bucket covering cycle [now]. *)

  val buckets : t -> (int * float) list
  (** [(bucket_start_cycle, accumulated)] pairs, oldest first. *)
end
