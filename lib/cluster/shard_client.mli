(** Rack-aware load generator: an external host that shards a request
    stream over all boards of a {!Cluster}, with client-side failover.

    Routing is consistent-hash by key ({!By_key}, for stateful services
    like KV — each board owns a stable slice of the keyspace) or
    round-robin ({!Round_robin}, for stateless replicas). Every request
    carries a timeout; on expiry the target board is dropped from the
    shard ring — resharding its keyspace onto survivors — and the work
    item is reissued, counted as a {!failovers}. The client re-admits a
    board when the cluster announces its recovery ({!Cluster.restore}),
    so a failover drill needs no operator intervention. *)

module Stats := Apiary_engine.Stats

type route = By_key | Round_robin

type t

val create :
  ?vnodes:int ->
  ?timeout:int ->
  ?gbps:float ->
  Cluster.t ->
  service:string ->
  op:int ->
  route:route ->
  gen:(int -> string * bytes) ->
  t
(** [gen work_id] returns the shard key and request body for one work
    item (deterministic in [work_id], so runs are reproducible).
    [timeout] defaults to 25_000 cycles (100 µs) — well above a healthy
    cross-rack RTT, well below the drill's degraded window. *)

val start : t -> concurrency:int -> unit
(** Closed loop: keep [concurrency] requests outstanding. *)

val stop : t -> unit

val issued : t -> int

val completed : t -> int
(** Successful ([Ok]) replies only. *)

val errors : t -> int
(** Transient failures the client retried: device backpressure, an
    empty shard ring (no live boards — retried when one returns), or a
    non-[Ok] reply (e.g. [Service_unavailable] from a board whose
    replica just moved away). The work item is reissued in every case;
    no request is lost. *)

val failovers : t -> int
(** Requests that timed out and were reissued to a survivor. *)

val latency : t -> Stats.Histogram.t

val live_boards : t -> int list

val set_on_complete : t -> (now:int -> unit) -> unit
(** Hook fired at each completion (e.g. to feed a {!Stats.Series}). *)

val set_on_outcome :
  t -> (now:int -> req:int -> latency:int option -> unit) -> unit
(** Hook fired at every request {e outcome}: [Some latency] (cycles)
    for an [Ok] reply, [None] for a timeout, a watchdog-driven
    board-down reissue, or a non-[Ok] reply. Device backpressure is not
    an outcome — the request never left the host. This is the feed for
    SLO accounting ({!Apiary_obs.Slo}), where timeouts must count
    against the error budget even though no latency sample exists. *)

val sync_boards : t -> int list -> unit
(** Reconcile shard-ring and round-robin membership with a scheduler's
    placement: boards in the list are admitted, boards not in it are
    removed — without reporting anything to the directory (these are
    placement changes, not failures). In-flight requests to a removed
    board still complete; only new issues follow the new membership. *)

val register_metrics : t -> unit
(** Install an [Apiary_obs.Registry] sampler publishing this client's
    issued/completed/errors/failovers gauges and its latency histogram
    under [client<port>.*]. *)
