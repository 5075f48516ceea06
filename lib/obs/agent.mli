(** Per-board push telemetry agent.

    One agent runs on each board's own simulator. Every [period] cycles
    it harvests the board's Registry instruments (only the samplers
    under its [prefix], e.g. [b3.] — a partitioned engine forbids
    reading other boards' state) into counter / gauge /
    histogram-bucket {e deltas}, folds in the span completions tapped
    via {!Span.set_sink}, and flushes the backlog as sequence-numbered
    {!Wire} batches through the [send] callback — which the cluster
    layer wires to the board's own NIC, so telemetry shares the uplink
    with workload traffic and its bandwidth is measured, not assumed.

    The record queue is bounded; on overflow the {e oldest} records are
    dropped first, and cumulative sent/dropped counts ride every batch
    header so the collector's conservation accounting
    ([emitted = delivered + dropped + in-flight], per board) stays
    exact even when drop notifications themselves are lost.

    The agent is the board's only management sender: load reports and
    alarms are {!push}ed records, and any batch is a heartbeat.

    This module knows nothing about frames or MACs: [send] receives the
    encoded batch payload and returns [false] on device backpressure
    (the records stay queued and retry next tick).

    Defaults come from the environment via tolerant {!Env} parsing:
    [APIARY_AGENT_PERIOD] (2000), [APIARY_AGENT_QUEUE] (1024),
    [APIARY_AGENT_BATCH] (1200 bytes). *)

(** Batch wire format — shared by agent (encode) and collector
    (decode). *)
module Wire : sig
  type span_done = {
    s_name : string;
    s_cat : string;
    s_corr : int;
    s_track : int;
    s_ts : int;
    s_dur : int;
    s_args : (string * string) list;
  }

  type record =
    | Counter_delta of string * int
    | Gauge_value of string * float
    | Hist_delta of string * (int * int) list
        (** [(bucket, count-delta)] pairs on the
            {!Apiary_engine.Stats.Histogram} grid *)
    | Span_done of span_done
    | Load of { msgs : int; tile_msgs : int array }
        (** [msgs_in] deltas; tile deltas clamp to [0..0xffff] *)
    | Alarm of { kind : int; tile : int }  (** 0 stuck tile, 1 congested *)

  type batch = {
    b_board : int;
    b_seq : int;  (** 1-based batch sequence number *)
    b_ts : int;  (** agent-side flush cycle *)
    b_cum_records : int;  (** records sent in batches before this one *)
    b_cum_dropped : int;  (** records dropped at the agent so far *)
    b_records : record list;
  }

  val magic : string
  (** First two payload bytes of every batch, ["TB"]. *)

  val header_bytes : int

  val encode_record : record -> string
  val encode_batch :
    board:int ->
    seq:int ->
    ts:int ->
    cum_records:int ->
    cum_dropped:int ->
    string list ->
    bytes

  val decode_batch : bytes -> batch option
  (** [None] on bad magic or truncation; records of unknown kind are
      skipped (forward compatibility), not errors. *)
end

type t

val default_period : int
val default_queue : int
val default_batch_bytes : int
(** The environment-tuned defaults ([APIARY_AGENT_PERIOD] /
    [APIARY_AGENT_QUEUE] / [APIARY_AGENT_BATCH]), resolved once at
    startup with {!Env}'s tolerant parsing. *)

val heartbeat_period : int
(** 500 cycles. A beat with no batch sent since the previous beat ships
    a header-only batch. *)

val create :
  ?period:int ->
  ?queue_cap:int ->
  ?batch_bytes:int ->
  ?max_frames:int ->
  ?until:int ->
  sim:Apiary_engine.Sim.t ->
  board:int ->
  prefix:string ->
  send:(bytes -> bool) ->
  unit ->
  t
(** Create the agent, install its span sink for [board], and arm its
    harvest/flush tick and its heartbeat on [sim] (both staggered by
    board id). [max_frames] (default 2) caps batches flushed per tick
    so telemetry cannot monopolize the NIC's descriptor ring against
    workload replies. Ticks after cycle [until] (default unbounded) are
    skipped — a benchmark sets it a safe margin before its run ends, so
    the wire is provably drained when conservation is read. Beats
    ignore [until]. *)

val detach : t -> unit
(** Stop ticking and beating (the periodic events become no-ops) and
    remove the span sink. Always detach before reusing the obs layer
    for an unrelated run. *)

val tick : t -> now:int -> unit
(** One harvest + flush, driven manually (tests). *)

val push : t -> now:int -> Wire.record -> unit
(** Enqueue one record and flush at once (load reports, alarms). Call
    from the board's own simulator. *)

(** {2 Accounting} — the agent's side of the conservation identity:
    [emitted = sent_records + dropped + queued] locally, and
    rack-wide [emitted = delivered + dropped + lost + queued] once the
    collector adds wire-loss from the cumulative headers. *)

val emitted : t -> int
val dropped : t -> int
val queued : t -> int
val sent_records : t -> int
val sent_batches : t -> int
val sent_bytes : t -> int
(** Sum of batch payload bytes handed to [send] successfully. *)

val backpressure : t -> int
(** Batches (beats included) refused by the device. *)
