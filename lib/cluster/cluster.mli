(** A rack of Apiary boards behind one ToR switch — the multi-board
    layer the paper's datacenter setting implies (§1: network-attached
    FPGAs; §6-Q3: OS functionality on remote machines).

    N boards (each a full {!Apiary_apps.Board}: kernel, mesh, MAC,
    network-service tile) share one {!Apiary_net.Switch} and one
    {!Directory}. Services installed through {!install} are registered
    rack-wide; {!connect}/{!call} then make cross-board service use look
    like local use — the same callback shape whether the replica is on
    the caller's own fabric or across the switch.

    Failure model: {!kill} downs the board's switch port (a link/board
    failure as the network sees it) and notifies {e nobody}; callers
    discover it through timeouts, which invalidate cached routes and
    unregister the board. {!restore} brings the port back, re-registers
    the board's services and fires {!on_board_up} subscribers. *)

module Sim := Apiary_engine.Sim
module Shell := Apiary_core.Shell
module Switch := Apiary_net.Switch
module Mac := Apiary_net.Mac

type t

val lookahead : int
(** Minimum send-to-deliver latency of a board uplink (126 cycles:
    125 of propagation + ≥1 of serialization) — the widest window a
    board-per-partition engine for this rack may use. *)

val engine :
  ?mode:Apiary_engine.Par_sim.mode ->
  ?domains:int ->
  boards:int ->
  unit ->
  Apiary_engine.Par_sim.t
(** The engine a rack of [boards] boards runs on: [boards + 1] members,
    a lookahead of {!lookahead} and adaptive windows. [mode] (default
    [Seq]) and [domains] are {!Apiary_engine.Par_sim.create}'s. *)

val create :
  ?kernel_cfg:Apiary_core.Kernel.config ->
  ?client_ports:int ->
  ?switch_latency:int ->
  ?fdb_capacity:int ->
  engine:Apiary_engine.Par_sim.t ->
  Sim.t ->
  boards:int ->
  t
(** Boards occupy switch ports [0 .. boards-1]; [client_ports] more
    (default 8) are reserved for {!add_client}. [switch_latency]
    defaults to 250 cycles (1 µs ToR at 250 MHz).

    The rack is partitioned one member per board over [engine], which
    must have exactly [boards + 1] members and a lookahead of at most
    {!lookahead}: member 0 owns the ToR switch, external clients and all
    rack-shared state; member [id + 1] owns board [id]'s fabric; board
    uplinks are {!Apiary_net.Link.create_split} member boundaries. [sim]
    must be member 0's simulator ({!Apiary_engine.Par_sim.sim}[ engine
    0]). Raises [Invalid_argument] when any of these does not hold. Run
    the rack through {!Apiary_engine.Par_sim} — results are
    byte-identical between its [Seq] and [Par] modes.

    The {!directory} is replicated per member (a replica on member 0
    for the controller and clients, one on member [id + 1] for board
    [id]), with registry mutations announced through the same
    boundary-merge protocol as uplink frames — so {!connect}/{!call}
    work from board shells and external clients alike. Directory
    mutations take one uplink ({!lookahead} cycles) to become visible. *)

val sim : t -> Sim.t
val switch : t -> Switch.t
val directory : t -> Directory.t
val n_boards : t -> int
val node : t -> int -> Node.t
val nodes : t -> Node.t list

val install : t -> board:int -> ?service:string -> Shell.behavior -> int
(** Install a behavior on the next free tile of [board]; returns the
    tile. With [?service], also registers the board as a replica of that
    service in the rack {!directory} (the behavior should register the
    same name with its own kernel in [on_boot], as usual). *)

(** {1 Failure injection} *)

val kill : t -> board:int -> unit
(** Down the board's switch port. No notification is delivered anywhere
    — failure is discovered by callers timing out. *)

val restore : t -> board:int -> unit
(** Bring the port back, re-register the board's services with the
    directory, and fire {!on_board_up} subscribers. *)

val on_board_up : t -> (int -> unit) -> unit
(** Subscribe to recovery announcements (shard rings and load balancers
    use this to re-admit a returning board). *)

val on_board_down : t -> (int -> unit) -> unit
(** Subscribe to failure {e detections}. {!kill} itself notifies nobody;
    this fires when a detector — the {!Rack_health} watchdog missing
    heartbeats — calls {!report_down}, letting clients fail over ahead
    of their own request timeouts. *)

val report_down : t -> board:int -> unit
(** Declare a board failed: unregister its directory replicas and fire
    {!on_board_down} subscribers. Called by failure detectors. *)

val on_board_alive : t -> (int -> unit) -> unit
(** Subscribe to proof of life (the {!Rack_health} watchdog's feed). *)

val report_alive : t -> board:int -> unit
(** Fire {!on_board_alive} subscribers: the {!Collector} does, for
    every batch it accepts from a board. *)

(** {1 Control plane} *)

val post_to_board : t -> board:int -> delay:int -> (unit -> unit) -> unit
(** Run a thunk inside [board]'s partition [delay] cycles from the
    controller's now — the rack controller's command channel (e.g. a
    scheduler ordering an install or reconfiguration). [delay] must be
    at least {!lookahead} — commands ride the same staging protocol as
    uplink frames — and [board] must exist; otherwise raises
    [Invalid_argument]. Call only from controller (member 0)
    execution. *)

(** {1 External clients} *)

val add_client : ?gbps:float -> t -> Mac.t * int
(** Attach a host NIC to the rack switch (ports above the boards');
    returns the MAC adapter and its address. *)

(** {1 Location-transparent invocation} *)

type target =
  | Local of Shell.conn  (** replica on the caller's own fabric *)
  | Remote of { net : Shell.conn; board : int; mac : int; service : string }
      (** replica across the switch, reached via the board's network tile *)

val target_board : target -> int option
(** The remote board id, or [None] for a local target. *)

val connect :
  t -> board:int -> Shell.t -> service:string ->
  ((target, Shell.rpc_error) result -> unit) -> unit
(** Resolve [service] through the rack directory from the given board
    and build the right kind of connection: a direct NoC connection for
    a local replica, or a connection to the board's ["net"] tile wrapped
    with the remote replica's address. *)

val call :
  t -> board:int -> Shell.t -> target -> op:int -> bytes ->
  ((bytes, Shell.rpc_error) result -> unit) -> unit
(** Invoke the target: [Shell.request] for local,
    [Netsvc.remote_request] for remote — same callback shape either way
    (the location-transparency claim made concrete). A failed remote
    call invalidates the cached route; a timeout additionally reports
    the board to the directory so resolution moves to survivors. *)

(** {1 Observability} *)

val register_metrics : t -> unit
(** Install [Apiary_obs.Registry] samplers for the whole rack: each
    board's kernel and NoC under [b<id>.*], the ToR switch under
    [rack.switch.*], and directory lookup/cache/invalidation gauges
    under [rack.directory.*]. Safe to call again after a registry
    [clear] (samplers are replaced by name, never duplicated). *)
