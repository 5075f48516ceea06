(** The per-tile Apiary monitor — the trusted hardware between an
    untrusted accelerator and the NoC (paper §4.1, Figure 1).

    Every message an accelerator sends or receives passes through here.
    The monitor owns the tile's partitioned capability table (256
    slots), resolves service names, enforces send/memory capabilities
    and rate limits on egress, implements the microkernel control
    protocol (naming, connections, allocation), and realizes the
    fail-stop fault model: a draining tile emits nothing and NACKs
    peers. Hang detection is not the monitor's: {!Health} sweeps every
    monitor's {!last_progress}.

    The accelerator-facing half of this module is re-exported with
    documentation as {!Shell}; accelerator code should only use that
    surface. Functions prefixed [priv_] require the tile to be marked
    privileged (OS services) and raise otherwise. *)

module Sim := Apiary_engine.Sim
module Stats := Apiary_engine.Stats
module Store := Apiary_cap.Store
module Rights := Apiary_cap.Rights

type config = {
  enforce : bool;  (** Capability checks + rate limiting on/off (E1/E4). *)
  check_latency : int;  (** Pipeline cycles added per egress message. *)
  rate : float;  (** Token-bucket refill, flits/cycle. *)
  burst : int;  (** Token-bucket depth, flits. *)
  egress_classes : int;
      (** Number of per-class egress queues (64 messages each); higher
          classes drain first, so bulk traffic cannot head-of-line block
          priority replies. [1] (default) is a single FIFO. *)
}

val default_config : config
(** Enforcing, a 2-cycle check, 4 flits/cycle with a 512-flit burst,
    one egress class. Not a field: a pending RPC fails with [Timeout]
    after 50,000 cycles in every monitor, since no kernel the benches,
    CLI and examples build waits any other time. *)

type state = Running | Draining of string | Offline

val state_to_string : state -> string

type t

(** How an accelerator is realized: event callbacks over its shell.
    [on_message] receives application data and (for OS service tiles)
    control requests; [on_tick] models clocked logic. *)
type behavior = {
  bname : string;
  on_boot : t -> unit;
  on_message : t -> Message.t -> unit;
  on_tick : (t -> unit) option;
}

val idle_behavior : behavior
(** Placeholder for an empty reconfigurable slot. *)

(** Wiring the kernel provides to each monitor: NoC injection, access to
    peer stores/monitors (monitors are mutually trusting hardware), the
    well-known OS service addresses, and fault notification. *)
type fabric = {
  f_inject : Message.t -> unit;
  f_flits : Message.t -> int;
  f_store_of : int -> Store.t;
  f_monitor_of : int -> t;
  f_name_addr : Message.addr;
  f_mem_addr : Message.addr;
  f_on_fault : int -> string -> unit;
}

val create :
  Sim.t -> tile:int -> config -> fabric -> flight:Apiary_obs.Flight.t ->
  privileged:bool -> behavior -> t
(** Create the monitor and register its tick. [on_boot] runs in the
    event phase of the next cycle. [flight] is the board's shared flight
    recorder, owned by the kernel. Every admit, deny, drop, fault and
    {!log} note is one monitor event: it goes to the flight ring when
    armed and to [Apiary_obs.Span] when span capture is on, stamped with
    the flight ring's board id. *)

(** {1 Identity and state} *)

val tile : t -> int
val sim : t -> Sim.t
val state : t -> state

val obs_board : t -> int
(** Board id stamped on this monitor's [Apiary_obs.Span] events (the
    flight ring's board, or [-1] when free-standing). *)

val store : t -> Store.t
val behavior_name : t -> string
val self_addr : t -> Message.addr
(** This tile's application endpoint. *)

(** {1 Ingress (called by the kernel's NoC receiver)} *)

val ingress : t -> Message.t -> unit

(** {1 Fault handling (paper §4.4)} *)

val fault : t -> string -> unit
(** Enter fail-stop: flush egress, revoke capabilities this tile granted
    to peers, cancel pending RPCs, NACK subsequent traffic, notify the
    kernel. Idempotent. *)

val set_offline : t -> unit
(** Used during partial reconfiguration: like draining, but silent. *)

val reset : t -> behavior -> unit
(** Re-arm a drained/offline tile with a fresh behavior and a fresh
    capability table (models reprogramming the slot). *)

(** {1 RPC errors surfaced to accelerators} *)

type rpc_error =
  | Timeout
  | Nacked of string  (** Peer is fail-stopped. *)
  | Denied of string  (** Local capability/rights check refused egress. *)

val rpc_error_to_string : rpc_error -> string

type reply_cb = (Message.t, rpc_error) result -> unit

(** {1 Shell surface (accelerator-facing; see {!Shell})} *)

type conn = { cap : Store.handle; peer : Message.addr; service : string }

type mem_handle = { mcap : Store.handle; base : int; len : int }

val register_service : t -> string -> unit
val lookup : t -> string -> (Message.addr option -> unit) -> unit
val connect : t -> service:string -> ((conn, rpc_error) result -> unit) -> unit
val send_data : t -> conn -> opcode:int -> ?cls:int -> bytes -> unit
val request : t -> conn -> opcode:int -> ?cls:int -> bytes -> reply_cb -> unit
val respond : t -> Message.t -> opcode:int -> ?cls:int -> bytes -> unit
val alloc : t -> bytes:int -> ((mem_handle, rpc_error) result -> unit) -> unit
val free : t -> mem_handle -> ((unit, rpc_error) result -> unit) -> unit

val read_mem :
  t -> mem_handle -> off:int -> len:int -> ((bytes, rpc_error) result -> unit) -> unit

val write_mem :
  t -> mem_handle -> off:int -> bytes -> ((unit, rpc_error) result -> unit) -> unit

val grant_mem :
  t -> mem_handle -> to_tile:int -> rights:Rights.t ->
  (Store.handle, Store.error) result
(** Derive an attenuated segment capability directly into a peer tile's
    table (shared-memory composition, §4.6). The returned handle is only
    meaningful on the peer tile; ship it there in a data message. *)

val mem_handle_of_grant : t -> Store.handle -> mem_handle option
(** On the receiving tile: resolve a granted segment handle into a usable
    memory handle (validates it against the local table). *)

val busy : t -> int -> unit
(** Model [n] cycles of accelerator compute: message delivery pauses. *)

type grant = Accept | Accept_limited of { rate : float; burst : int } | Refuse
(** A connect policy's verdict. [Accept_limited] attaches a token-bucket
    rate (flits/cycle) to the granted connection, enforced by the
    {e requester's} monitor — receiver-set, sender-enforced QoS at
    per-connection granularity (finer than the tile bucket). *)

val set_connect_policy : t -> (Message.addr -> bool) -> unit
(** Accept/refuse incoming connections (default: accept all). *)

val set_grant_policy : t -> (Message.addr -> grant) -> unit
(** Full policy including per-connection rate limits. *)

val set_on_error : t -> (string -> unit) -> unit
(** Asynchronous error notifications (denied egress, dropped messages). *)

val raise_fault : t -> string -> unit
(** The accelerator detected an internal error (explicit fail-stop). *)

val send_raw : t -> dst:Message.addr -> opcode:int -> bytes -> unit
(** Attempt an uncapabilitied send — what a buggy or malicious
    accelerator would do. Denied when enforcement is on. *)

val rng : t -> Apiary_engine.Rng.t
val log : t -> string -> unit
(** Record a tile-local note: a ["note"] monitor event with a [msg]
    argument. *)

(** {1 Privileged operations (OS services only)} *)

val priv_mint_segment :
  t -> for_tile:int -> base:int -> len:int -> rights:Rights.t -> Store.handle
(** Mint a segment capability directly into [for_tile]'s table (memory
    service handing out allocations). @raise Failure if not privileged. *)

val priv_revoke : t -> for_tile:int -> Store.handle -> int
(** Revoke a capability in [for_tile]'s table; returns number revoked. *)

val priv_respond_control :
  t -> Message.t -> ?payload:bytes -> Message.control -> unit
(** Reply to a control request with a control message (OS services
    answering [Alloc_req], [Lookup], ...). *)

(** {1 Statistics} *)

val perf : t -> Apiary_obs.Perf.t
(** The tile's hardware counter block (messages in/out, syscalls,
    denials, drops, NACKs, faults, health heartbeats) — updated
    cycle-accurately and readable in-band through the stat service. *)

val msgs_in : t -> int
val msgs_out : t -> int
val denied : t -> int
val dropped : t -> int
val rate_stalls : t -> int
val added_latency : t -> Stats.Histogram.t
(** Cycles each egress message spent inside the monitor (queueing +
    checks) — the E1 overhead metric. *)

val rx_backlog : t -> int

val last_progress : t -> int
(** Last cycle this monitor moved a message (rx delivery or egress
    admit) — the heartbeat the health layer's deadline watches. A tile
    with queued work and a stale [last_progress] is stuck; an idle tile
    (no queued work) is healthy no matter how old its timestamp is, so
    quiescence fast-forward cannot cause false positives. *)

val has_egress_backlog : t -> bool
(** Any committed egress entry waiting in a class queue. *)
