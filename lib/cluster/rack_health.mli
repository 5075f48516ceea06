(** The rack watchdog: heartbeat-based failure detection that beats
    request timeouts.

    Every board's {!Apiary_obs.Agent} ships a batch at least every
    {!Apiary_obs.Agent.heartbeat_period} cycles, and the rack
    {!Collector} reports each one through {!Cluster.report_alive}. A
    board silent for longer than [deadline] is declared down via
    {!Cluster.report_down}, which unregisters its replicas and fires
    {!Cluster.on_board_down} — the shard client reshards and reissues
    that board's in-flight work at once. Detection latency is bounded
    by [deadline + heartbeat_period] regardless of request traffic,
    versus the per-request timeout (~120 µs in the E12 drill) that
    client-driven detection needs.

    Beats are events on each board's own simulator, so they fire across
    quiescence fast-forward and in every engine mode; the watchdog state
    lives wholly on the rack member. Deterministic for a fixed seed. *)

type t

val create : ?deadline:int -> Cluster.t -> t
(** Listen to {!Cluster.on_board_alive} and start the deadline sweep
    (every heartbeat period, from cycle [deadline]). [deadline]
    (default 3000) must exceed the heartbeat period by enough to cover
    uplink + switch latency; the default does at the stock 250-cycle
    ToR. The rack needs a {!Collector}, created before or after the
    watchdog: a sweep that finds no board ever heard raises [Failure]
    naming it. *)

val heartbeats_seen : t -> int
(** Management batches heard, across all boards. *)

val detections : t -> (int * int) list
(** [(cycle, board)] failure declarations, oldest first. *)
