(** The rack watchdog: heartbeat-based failure detection that beats
    request timeouts.

    Every board beacons a raw-Ethernet heartbeat to a watchdog NIC on
    the ToR switch each [hb_period] cycles; a board silent for longer
    than [deadline] is declared down via {!Cluster.report_down}, which
    unregisters its replicas and fires {!Cluster.on_board_down} — the
    shard client reshards and reissues that board's in-flight work at
    once. Detection latency is bounded by [deadline + hb_period]
    regardless of request traffic, versus the per-request timeout
    (~120 µs in the E12 drill) that client-driven detection needs.

    Heartbeats are events on each board's own simulator, so they fire
    across quiescence fast-forward and in every engine mode; the
    watchdog state lives wholly on the rack member. Deterministic for a
    fixed seed. *)

type t

val create : ?hb_period:int -> ?deadline:int -> ?gbps:float -> Cluster.t -> t
(** Attach the watchdog NIC (a {!Cluster.add_client} port) and start
    the beacons and the deadline sweep. Defaults: beacon every 500
    cycles, 3000-cycle deadline (must exceed [hb_period] by enough to
    cover uplink + switch latency; the defaults do at the stock 250-cycle
    ToR). *)

val board_alive : t -> int -> bool
(** Watchdog's current belief. Re-armed by the first heartbeat after a
    detection (ring re-admission still comes from {!Cluster.restore}). *)

val heartbeats_seen : t -> int

val detections : t -> (int * int) list
(** [(cycle, board)] failure declarations, oldest first. *)
