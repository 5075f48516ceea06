(** Global metrics registry: the aggregate half of the telemetry layer.

    Components expose their existing [Stats] instruments under stable
    dotted names (e.g. [b0.noc.r1_2.occ], [rack.switch.flooded],
    [svc.kv.latency]) instead of each benchmark growing its own ad-hoc
    counters. Two styles coexist:

    - {b owned instruments}: {!counter}, {!gauge} and {!histogram}
      get-or-create named instruments that live in the registry and are
      reset by {!reset};
    - {b samplers}: named callbacks (registered by the [register_metrics]
      attach points in kernel, mesh, switch, cluster, …) that pull live
      component state — FIFO occupancy, link utilization, denial counts —
      into owned instruments right before every {!snapshot}. Registering
      a sampler under an existing name replaces it, so re-attaching
      between runs never duplicates.

    A snapshot is an alphabetical association list, so rendering it (see
    {!Export.metrics_json}) is deterministic. Each prefix's sorted
    sampler and instrument lists are cached until a binding changes (a
    new name, another instrument under an existing name, any
    {!add_sampler}, {!clear}), so a per-board agent harvesting every
    period pays the fold and sort only after such a change. Re-binding
    the instrument a name already holds changes nothing.

    A sampler may resolve its instruments on its first run and keep the
    handles from then on: {!clear} drops the sampler together with the
    instruments, and {!reset} zeroes instruments in place.

    Two {b built-in samplers} are always installed (and re-installed by
    {!clear}): [obs.span] publishes the span recorder's retained/dropped
    event counts as [obs.span.events] / [obs.span.dropped] gauges, so a
    truncated trace is detectable from the metrics dump alone; [obs.prof]
    publishes the [APIARY_PROF] per-ticker wall-time rows as
    [prof.<ticker>.calls] / [prof.<ticker>.seconds] gauges (nothing when
    profiling is off), so [--perf] and [--obs] share one metrics
    pipeline. *)

module Stats := Apiary_engine.Stats

type instrument =
  | Counter of Stats.Counter.t
  | Gauge of Stats.Gauge.t
  | Histogram of Stats.Histogram.t

val counter : string -> Stats.Counter.t
(** Get or create the named counter. Raises [Invalid_argument] if the
    name is already bound to a different instrument kind. *)

val gauge : string -> Stats.Gauge.t
val histogram : string -> Stats.Histogram.t

val register : string -> instrument -> unit
(** Adopt an existing instrument (e.g. a client's latency histogram)
    under [name], replacing any previous binding. Registering the
    instrument [name] already holds is a no-op. *)

val add_sampler : name:string -> (unit -> unit) -> unit
(** Install (or replace) a named pull hook, run by {!sample} in
    alphabetical name order. *)

val sample : unit -> unit
(** Run all samplers (also done by {!snapshot}). *)

val snapshot : unit -> (string * instrument) list
(** Pull samplers, then return every instrument sorted by name. *)

val sample_prefix : string -> unit
(** Run only the samplers whose name starts with the prefix — what a
    per-board agent uses so harvesting [b2.*] never executes another
    board's pull hooks (which would cross partition boundaries under a
    parallel engine). *)

val snapshot_prefix : string -> (string * instrument) list
(** {!sample_prefix}, then the instruments under that prefix, sorted.
    Note samplers and the instruments they fill share the dotted-name
    prefix convention ([b<id>.], [rack.]) by construction. *)

val reset : unit -> unit
(** Reset every owned instrument (counters, gauges and histograms alike;
    samplers are kept). *)

val resets : unit -> int
(** How many times {!reset} ran. A reader that ships deltas (a
    telemetry agent) forgets what it last saw when this moves, since a
    reset instrument can read lower than before. *)

val clear : unit -> unit
(** Drop all instruments and samplers — between unrelated runs. The
    built-in [obs.span] and [obs.prof] samplers are re-installed. *)
