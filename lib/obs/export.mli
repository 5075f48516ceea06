(** Render captured spans and registry snapshots as JSON.

    {!chrome_trace} emits the Chrome [trace_event] format (an object
    with a [traceEvents] array), loadable directly in Perfetto or
    [chrome://tracing]. Simulation cycles are used as the microsecond
    clock, so one "us" on the timeline is one fabric cycle. Mapping:

    - pid [0] is the rack (ToR switch, shard clients); pid [b + 1] is
      board [b] — a [process_name] metadata record labels each;
    - tid is the span's track: tile index on a board, [1000 + port] for
      switch ports, [3000 + client] for shard clients;
    - open {!Span.Dur} spans export as ["B"] (begin-only) events so a
      crashed or still-degraded request is visible as an unterminated
      span rather than silently dropped;
    - [corr] and the span args become event [args].

    Output is byte-stable for a fixed-seed capture in every engine
    mode: events are sorted stably by [(ts, board)], so input order
    (recording order for {!Span.events}, arrival order for the rack
    collector) breaks the remaining ties. Those ties are within one
    board, whose events its own engine member records in a
    deterministic order. Metadata is sorted by pid, and no wall-clock
    or address-derived value is emitted. *)

val chrome_trace_string : ?dropped:int -> Span.event list -> string
(** When [dropped > 0] the capture is partial (the span buffer cap was
    reached): a [trace_truncated] metadata record carrying the drop
    count is stamped into the export so the artifact itself says so,
    not just the metrics dump. *)

val chrome_trace : ?dropped:int -> path:string -> Span.event list -> unit
(** Write {!chrome_trace_string} to [path]. *)

val metrics_json_string : (string * Registry.instrument) list -> string
(** Render a {!Registry.snapshot} as one JSON object keyed by instrument
    name (alphabetical): counters as [{"type":"counter","value":n}],
    gauges with last/min/max, histograms with count/sum/mean and the
    p50/p90/p99 percentiles. *)

val metrics_json : path:string -> (string * Registry.instrument) list -> unit

(** {2 JSON building blocks}

    Shared by the other observability exporters ({!Series}, {!Slo}) so
    every artifact renders strings and floats identically. *)

val buf_add_json_string : Buffer.t -> string -> unit
(** Append a JSON-escaped, quoted string. *)

val buf_add_float : Buffer.t -> float -> unit
(** Append a float as [%.6g]; non-finite values render as [null] (JSON
    has no Infinity/NaN). *)
