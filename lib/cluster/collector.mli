(** Rack telemetry collector: reassembles every board agent's push
    stream into the central observability pipeline. It is the rack's
    one management receiver.

    {!create} builds the whole in-band telemetry plane in one call: a
    collector NIC on the ToR switch, plus one {!Apiary_obs.Agent} per
    board wired to ship its batches through the board's {e own}
    workload NIC (telemetry shares the uplink and is charged for it).
    Delivered batches land in:

    - the global Registry, under [collected.b<id>.*] names (counter /
      gauge / histogram deltas replayed), side by side with the
      board-local originals;
    - per-metric {!Apiary_obs.Exemplar} stores — the metric→trace link;
    - a bounded collected-span list re-exportable as a Chrome trace;
    - {!on_service_outcome} subscribers (the scheduler's collected SLO
      feed);
    - {!on_record} subscribers, for load reports and health alarms;
    - {!Cluster.report_alive}, once per accepted batch — header-only
      heartbeats included — which drives the {!Rack_health} watchdog.

    Accounting is conservation-exact per board (see
    {!conservation_json_string}): cumulative sent/dropped counts in
    every batch header plus sequence-gap detection make
    [emitted = delivered + dropped + lost + in-flight] close to the
    record even under deliberate uplink congestion.

    The collector runs wholly on the rack simulator, so all its exports
    are byte-identical between the sequential engine and
    [APIARY_PAR=boards]. *)

type t

type outcome = {
  o_service : string;
  o_dur : int;  (** server-observed service time, cycles *)
  o_ok : bool;  (** status arg was ["ok"] (or absent) *)
  o_corr : int;  (** cross-wire [req_id] when present, else span corr *)
}

val create :
  ?agent_period:int ->
  ?agent_queue:int ->
  ?agent_batch_bytes:int ->
  ?agent_max_frames:int ->
  ?agent_until:int ->
  ?span_cap:int ->
  Cluster.t ->
  t
(** Attach the collector NIC (a 100G port, board-uplink class, so
    every board can flush into it at once) and create one push agent
    per board. Agent knobs default to the agent's own
    (environment-tunable) defaults; [agent_max_frames] caps batches per
    flush (default 2); [agent_until] skips agent ticks after that cycle
    (see {!Apiary_obs.Agent.create}), so a run's last stretch provably
    drains the wire before conservation is read. [span_cap] (default
    65_536) bounds retained collected spans (overflow is counted, and
    reported as [trace_truncated] by the trace export). *)

val detach : t -> unit
(** Detach every agent (stops their ticks and removes span sinks).
    Always call before reusing the obs layer for an unrelated run. *)

val agent : t -> int -> Apiary_obs.Agent.t
(** Board [i]'s agent — where board-side code {!Apiary_obs.Agent.push}es
    its management records. *)

val on_service_outcome : t -> (now:int -> outcome -> unit) -> unit
(** Subscribe to service outcomes reconstructed from collected [serve]
    spans. Serve spans are corr-0, so sampling never thins them; what
    this feed {e does} honestly miss is requests that died before any
    server saw them — client-side timeout detection stays client-side. *)

val on_record : t -> (board:int -> Apiary_obs.Agent.Wire.record -> unit) -> unit
(** Subscribe to the management records boards push through their
    agents ([Load] and [Alarm]; the registry replay ignores them), in
    arrival order, on the rack simulator. *)

val rx_frames : t -> int
val delivered : t -> board:int -> int
val lost_batches : t -> board:int -> int

val lost_records_detected : t -> board:int -> int
(** Wire loss inferred from cumulative batch-header counts at sequence
    gaps — the collector's independent estimate of
    [sent_records - delivered], exact once a post-gap batch arrives. *)

val staleness : t -> board:int -> now:int -> int
(** Age, in cycles, of the freshest records collected from the board
    (header-only heartbeats do not count; the full [now] before any
    batch has arrived). *)

val trace_json_string : t -> string
(** Collected spans as a byte-stable Chrome trace (standard exporter;
    [trace_truncated] metadata appears iff the span cap dropped any). *)

val conservation_json_string : t -> string
(** Byte-stable per-board accounting:
    [{"boards": [{"board", "emitted", "delivered", "dropped_agent",
    "lost_wire", "lost_wire_detected", "in_flight", "sent_records",
    "sent_batches", "sent_bytes", "batches", "lost_batches",
    "backpressure", "decode_errors", "last_agent_ts", "last_rx"},
    ...]}] satisfying
    [emitted == delivered + dropped_agent + lost_wire + in_flight]
    exactly once the fabric has drained. *)

val exemplars_json_string : t -> string
(** [{"metrics": [<exemplar store>, ...]}], sorted by metric name. *)
