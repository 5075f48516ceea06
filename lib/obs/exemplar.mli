(** Histogram exemplars: the metric→trace link.

    A histogram tells you {e that} p99 spiked; an exemplar tells you
    {e which request} — each log-bucket of a latency histogram retains
    one sample's correlation id (latest-wins), on the exact bucket grid
    {!Apiary_engine.Stats.Histogram} computes percentiles from, so a
    percentile links to a retained span in the trace rather than to a
    guess.

    Exemplar stores are plain values (no global registry): the rack
    collector owns one per collected latency metric and exports them
    all ([BENCH_e16_exemplars.json]). Latest-wins on a deterministic
    arrival order keeps the JSON export byte-stable. *)

type t

type sample = {
  x_corr : int;  (** correlation / request id of the retained sample *)
  x_value : int;  (** the recorded latency, cycles *)
  x_ts : int;  (** cycle the sample was observed *)
}

val create : string -> t
(** Empty store (one slot per histogram bucket) for the named metric. *)

val observe : t -> corr:int -> value:int -> ts:int -> unit
(** Retain this sample in the bucket [value] lands in, replacing any
    previous occupant (latest-wins; negative values clamp to 0). *)

val to_list : t -> (int * sample) list
(** Occupied buckets in ascending bucket order. *)

val buf_add : Buffer.t -> t -> unit
(** Append the byte-stable JSON object
    [{"name", "exemplars": [{"bucket", "bucket_value", "corr",
    "value", "ts"}, ...]}]. *)
