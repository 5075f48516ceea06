(** Span-based tracing: the request-journey half of the telemetry layer.

    A span is a named, cycle-stamped interval attributed to a layer
    (category), a board and a track (tile, switch port, client), and
    keyed by the RPC {b correlation id} already carried by fabric
    messages — so one request's journey across monitor, NoC, network
    service, ToR switch and remote board reconstructs by grouping spans
    on [corr] (board-local) and the network [req_id] argument (across
    the wire).

    The recorder is process-global and {b disabled by default}: every
    entry point checks one flag first, so instrumented hot paths pay a
    single branch when tracing is off (the same discipline as
    {!Flight.record}). Call sites that would allocate argument lists
    should guard with {!on} themselves.

    Timestamps are simulation cycles — never wall clock. Recording is
    mutex-protected, so a parallel engine may record concurrently; the
    global recording order then interleaves boards differently run to
    run, but each board's own events keep their order, and
    {!Export.chrome_trace} sorts by [(ts, board, seq)]. A fixed-seed
    capture is therefore deterministic and its export byte-stable in
    any engine mode, as long as nothing is dropped at the cap (which
    events the cap drops depends on the interleaving).

    {b Sampling} ({!set_sampling}) keeps full-scale captures inside the
    buffer cap without losing determinism: correlation families are
    head-sampled by [hash(corr) mod head_mod] — a pure function of the
    corr id, so Seq and parallel engines select the same subset — while
    {e tail rules} always keep the interesting spans regardless of the
    head decision: anything slower than [slow_cycles], error-named
    events ([fault], [deny], [drop], [timeout], [failover],
    [board_down]) and spans whose [status] arg is not ["ok"]. Corr-0
    (uncorrelated) spans are never sampled away. A head-sampled open
    span is parked off-buffer until {!finish} so a tail rule can still
    promote it; if tracing ends before its finish, it simply never
    appears in the export. *)

type ph =
  | Dur  (** an interval; still open while [dur] is negative *)
  | Mark  (** a point event *)

type event = {
  seq : int;
      (** recording order; export tie-breaker at equal [ts] and [board] *)
  name : string;
  cat : string;  (** layer: ["monitor"], ["noc"], ["net"], ["cluster"] *)
  corr : int;  (** board-local RPC correlation id; [0] = uncorrelated *)
  board : int;  (** board id; [-1] = rack-level (switch, clients) *)
  track : int;  (** tile index, or a component track id (see {!Export}) *)
  ts : int;  (** start cycle *)
  mutable dur : int;  (** cycles; [-1] while a {!Dur} span is open *)
  ph : ph;
  mutable args : (string * string) list;
}

val set_enabled : bool -> unit
val on : unit -> bool

val reset : unit -> unit
(** Drop all recorded spans (the enabled flag is unchanged). *)

type id
(** Handle to an open span; the null id (returned while disabled) makes
    {!finish} a no-op. *)

val null : id

val start :
  ?board:int ->
  ?corr:int ->
  ?args:(string * string) list ->
  cat:string ->
  name:string ->
  track:int ->
  ts:int ->
  unit ->
  id
(** Open a span. Returns {!null} when disabled or the buffer is full. *)

val finish : ?args:(string * string) list -> ts:int -> id -> unit
(** Close an open span; extra [args] are appended. No-op on {!null} or
    when the recorder was reset since {!start}. *)

val complete :
  ?board:int ->
  ?corr:int ->
  ?args:(string * string) list ->
  cat:string ->
  name:string ->
  track:int ->
  ts:int ->
  dur:int ->
  unit ->
  unit
(** Record an already-closed span in one call (hop spans). *)

val instant :
  ?board:int ->
  ?corr:int ->
  ?args:(string * string) list ->
  cat:string ->
  name:string ->
  track:int ->
  ts:int ->
  unit ->
  unit
(** Record a point event (admit, deny, fault, frame tx/rx). *)

val events : unit -> event list
(** All retained events in recording order. *)

val count : unit -> int
(** Events retained (i.e. not dropped by the capacity cap). *)

val dropped : unit -> int
(** Events discarded because the buffer cap was reached. The first drop
    prints a one-shot stderr warning. *)

val sampled : unit -> int
(** Events deterministically sampled away (distinct from {!dropped}:
    sampling is a deliberate, reproducible reduction; dropping is the
    buffer overflowing). *)

val set_capacity : int -> unit
(** Cap on retained events (default [1_048_576], or [APIARY_OBS_CAP]
    from the environment at startup); also resets. *)

val set_sink : board:int -> (event -> unit) -> unit
(** Install (or replace) a per-board completion tap: the callback fires
    for every {!Dur} span of that board that closes with its duration
    set {e and} survives sampling — the post-sampling stream a
    board-local telemetry agent ships over the fabric. The sink runs on
    the domain that recorded the completion (the board's own, under a
    partitioned engine) while the recorder lock is held, so it must not
    call back into this module. {!Mark} events are not delivered.
    Sinks survive {!reset}. *)

val clear_sink : board:int -> unit
val clear_sinks : unit -> unit
(** Remove one / all sinks — always detach agents before a later run
    re-enables tracing for a different topology. *)

val set_sampling : ?head_mod:int -> ?slow_cycles:int -> unit -> unit
(** Configure deterministic sampling. [head_mod] (default 1 = keep all)
    keeps corr families with [hash(corr) mod head_mod = 0];
    [slow_cycles] (default [max_int] = never) is the tail-latency
    threshold above which a span is kept regardless. Omitted arguments
    reset to their defaults. Raises [Invalid_argument] if
    [head_mod < 1]. Survives {!reset}. *)
