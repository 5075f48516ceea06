(** Federated name server for a rack of Apiary boards.

    Per-board kernels already resolve names for their own fabric; the
    directory is the layer above: it maps a service name to the set of
    boards exporting it, so [connect "kv"] from any board resolves to a
    local tile when possible and to [(mac, service)] on another board
    otherwise — the paper's location transparency ("calls to other
    modules may be local or remote", §1) across the ToR switch.

    {2 Replication}

    The directory is replicated one copy per engine member: replica 0
    on member 0 serves the rack controller, replica [b + 1] on board
    [b]'s member serves that board. Registry mutations are
    {e announcements} posted to {e every} replica — the announcer's own
    included — through the engine's boundary-merge protocol
    ({!Apiary_engine.Par_sim.post}), which delivers them in its
    canonical [(time, source member, sequence)] order; each replica
    applies them in that order once their time has passed, so all
    replicas step through the same registry states in every engine
    mode. A mutation announced at cycle [c] becomes visible to reads
    strictly after [c + announce_delay].

    Resolution results are cached per [(from_board, service)] in the
    asking board's replica; a failed remote call must {!invalidate} its
    route (and {!report_failure} the board if it timed out). The
    directory itself never detects failures — it is deterministic
    rack-controller state. Replica caches are single-writer (the owning
    partition); debug builds assert this on every write path. *)

type replica = { board : int; mac : int }

type resolution =
  | Local  (** the service runs on the asking board's own fabric *)
  | Remote of replica  (** reach it through the network tile *)

type t

val create : announce_delay:int -> Apiary_engine.Par_sim.t -> t
(** One replica per member of the engine, laid out as a {!Cluster} rack
    partitions it: member 0 is the controller, member [b + 1] board
    [b]. [announce_delay] is the cycles between a mutation and its
    visibility; it must be at least the engine lookahead (raises
    [Invalid_argument] otherwise) so the cross-member posts are legal. *)

val register : t -> service:string -> board:int -> mac:int -> unit
(** Idempotent per (service, board). Announced from the controller
    (replica 0). *)

val unregister : t -> service:string -> board:int -> unit
(** Remove one (service, board) pair — a scheduler draining a single
    replica off a live board. Sticky routes that picked this replica
    are pruned; the board's other services are untouched. Announced
    from the controller. *)

val report_failure : t -> ?from_board:int -> board:int -> unit -> unit
(** Caller-observed failure (e.g. remote-call timeout): removes every
    service the board exports, and any cached routes to it. Announced
    from the reporting board's own partition ([from_board] defaults to
    the controller). *)

val resolve : t -> from_board:int -> service:string -> resolution option
(** [None] when no live replica exports the service. Remote picks are
    rotated across replicas on first resolution, then cached until
    invalidated. Served entirely from [from_board]'s replica. *)

val invalidate : t -> from_board:int -> service:string -> unit
(** Drop one cached route (stale-route handling after a failed call). *)

val replicas : t -> string -> replica list
(** Live replicas of a service, in registration order — the
    controller's (replica 0's) view. *)

(** {2 Counters}

    Summed across replicas; each replica counts only its own boards'
    lookups, so the sums are engine-mode-independent. *)

val lookups : t -> int
val cache_hits : t -> int
val invalidations : t -> int
