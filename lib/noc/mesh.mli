(** A complete 2D-mesh Network-on-Chip: routers, links, NICs, wiring and
    measurement.

    The mesh is polymorphic in the packet payload so higher layers can ship
    arbitrary messages without this library depending on them. End-to-end
    packet latency (injection-queue entry to tail-flit ejection) and hop
    counts are recorded automatically. *)

module Sim := Apiary_engine.Sim
module Stats := Apiary_engine.Stats

type config = {
  cols : int;
  rows : int;
  vcs : int;  (** Virtual channels = QoS classes per port. *)
  depth : int;  (** Buffer depth per input VC, in flits. *)
  flit_bytes : int;  (** Payload bytes carried per flit. *)
  routing : Routing.t;
  qos : bool;  (** Strict class-priority arbitration when [true]. *)
}

val default_config : config
(** 4x4 mesh, 2 VCs, depth 4, 16-byte flits, XY routing, QoS off. *)

type 'a t

val create : Sim.t -> config -> 'a t
(** Build the mesh on [sim]: routers, NICs and the credit-wired links
    between them. *)

val sim : 'a t -> Sim.t
(** The simulator the mesh runs on. *)

val config : 'a t -> config
val coords : 'a t -> Coord.t list
(** All tile coordinates, row-major. *)

val in_bounds : 'a t -> Coord.t -> bool

val send :
  'a t -> src:Coord.t -> dst:Coord.t -> ?cls:int -> ?corr:int ->
  payload_bytes:int -> 'a -> unit
(** Enqueue a packet at [src]'s NIC. [payload_bytes] determines the flit
    count; the payload value itself rides opaquely. [corr] (default [0])
    is the RPC correlation id stamped on the packet so per-hop span
    events attribute to the originating call. *)

val set_obs_board : 'a t -> int -> unit
(** Stamp the board id on every router and NIC (and on end-to-end
    transfer spans), so [Apiary_obs.Span] events from this mesh land on
    the right process row in the exported trace. *)

val register_metrics : 'a t -> prefix:string -> unit
(** Install an [Apiary_obs.Registry] sampler (named [prefix ^ ".noc"],
    so re-attaching replaces) that publishes per-router occupancy and
    utilization gauges ([<prefix>.noc.r<x>_<y>.occ]/[.util] — the NoC
    heatmap), sent/delivered totals, and the latency and hop
    histograms. *)

val set_receiver : 'a t -> Coord.t -> ('a Packet.t -> unit) -> unit
(** Install the delivery callback for a tile (replaces any previous). *)

val router_at : 'a t -> Coord.t -> 'a Router.t

val latency : 'a t -> Stats.Histogram.t
(** End-to-end packet latency in cycles, all classes. *)

val latency_of_class : 'a t -> int -> Stats.Histogram.t
val hop_histogram : 'a t -> Stats.Histogram.t
val packets_sent : 'a t -> int
val packets_delivered : 'a t -> int
val flits_routed : 'a t -> int
(** Sum of flits forwarded by all routers. *)

val tx_backlog : 'a t -> int
(** Total packets queued or in flight across all NICs (drain check). *)

val column_activity : 'a t -> int array
(** Armed (active-set) router and NIC tickers per mesh column (see
    [Sim.armed]). *)

val active_columns : 'a t -> int
(** Number of columns with at least one armed router or NIC. *)
