(** Single-cycle wormhole router with virtual channels and credit-based
    flow control.

    Each of the five ports has [vcs] virtual channels; VC index equals the
    packet's QoS class (clamped), so classes never share buffers. A head
    flit allocates an output VC and the packet holds it until its tail flit
    passes (wormhole switching). Per cycle the router moves at most one flit
    per output port and one flit per input port; arbitration is rotating
    round-robin, or strict class priority when QoS mode is on.

    Credits track downstream buffer space: a flit is only forwarded when the
    destination buffer is guaranteed to accept it, and a credit returns to
    the upstream router one cycle after the downstream buffer is drained —
    the standard credit-based scheme, so buffers can never overflow. *)

module Sim := Apiary_engine.Sim

(** A mesh's flit storage and flow-control state, held the way a hardware
    description holds it: registers and RAMs, committed once a cycle.

    {b Flits.} A flit is an int: the slot of its packet in the packet
    table, plus the head and tail type bits a hardware flit carries.

    {b Channels.} Every router input buffer and NIC ejection buffer is a
    channel: a fixed ring of [depth] flits in one mesh-wide int RAM.
    A push is staged in place and published by the commit, so a flit
    written in cycle [t] can be popped no earlier than cycle [t+1];
    fullness counts staged flits, so producers see backpressure at once.
    Each channel has the credit register of the output that feeds it: a
    push takes a credit at once, and a pop returns it at the commit, so
    the upstream router sees it the cycle after the pop.

    {b Owners.} A channel's owner is the router or NIC that consumes it.
    Each owner has an occupancy count (flits staged or buffered across
    its channels) and a ticker handle the commit re-arms when one of its
    channels publishes flits.

    {b Commit.} The first push or pop of a cycle enlists the fabric in
    the simulator's commit phase ({!Apiary_engine.Sim.mark_dirty}); that
    one commit publishes every staged flit, applies every credit return
    and re-arms the owners.

    {b Packet table.} A packet holds a slot from {!Fabric.alloc} (when
    its head flit is injected) to {!Fabric.free} (at tail ejection). The
    table keeps its destination, class and flit count in int arrays, so
    routing never reads the packet record. *)
module Fabric : sig
  type 'a t

  val create : Sim.t -> cols:int -> rows:int -> vcs:int -> depth:int -> 'a t

  (** {1 Channels and owners} *)

  val coord : 'a t -> int -> Coord.t
  (** The coordinate of a tile index. *)

  val input_chan : 'a t -> tile:int -> port:int -> vc:int -> int
  (** Router [tile]'s input buffer for ([port] index, [vc]). A router's
      input channels are contiguous, in (port, vc) order. *)

  val eject_chan : 'a t -> tile:int -> vc:int -> int
  (** The ejection buffer of [tile]'s NIC for [vc]. *)

  val nic_owner : 'a t -> int -> int
  (** Owner id of [tile]'s NIC (its ejection channels). Router [tile]'s
      owner id (its input channels) is [tile]. *)

  val set_handle : 'a t -> int -> Sim.handle -> unit
  (** The ticker the commit re-arms when the owner's channels publish. *)

  val occupancy : 'a t -> int -> int
  (** Flits staged or buffered across the owner's channels. *)

  val inject : 'a t -> int -> slot:int -> idx:int -> bool
  (** Stage flit [idx] (from 0) of the packet in table [slot] into the
      channel and take a credit; [false], staging nothing, when published
      plus staged flits already fill it. *)

  val eject : 'a t -> int -> int
  (** Pop the channel's oldest published flit, returning its credit at
      the commit. The result is the flit's table slot when it was its
      packet's tail, else [-1] (also when there was no flit). *)

  (** {1 Packet table} *)

  val alloc : 'a t -> 'a Packet.t -> int
  val free : 'a t -> int -> unit
  val packet : 'a t -> int -> 'a Packet.t
end

type 'a t

val create : Sim.t -> 'a Fabric.t -> tile:int -> routing:Routing.t -> qos:bool -> 'a t
(** Create router [tile] over its input channels in the mesh's fabric
    and register its per-cycle tick with the simulator. Flits published
    into its input channels re-arm it when it is parked. *)

val handle : 'a t -> Sim.handle
(** The router's ticker (see [Sim.armed]). *)

val coord : 'a t -> Coord.t
val vcs : 'a t -> int

val connect : 'a t -> port:Port.t -> vc:int -> dest:int -> unit
(** Wire the output ([port], [vc]) to a downstream fabric channel; the
    channel's credit register starts at its depth. *)

val perf : 'a t -> Apiary_obs.Perf.t
(** The router's hardware counter block: flits forwarded, busy cycles,
    credit stalls and the input-occupancy watermark — updated
    cycle-accurately, never influencing routing, and readable in-band by
    the stat service. *)

val flits_routed : 'a t -> int
(** Total flits forwarded since creation (switch activity). Equals the
    [Perf.flits] slot of {!perf}. *)

val busy_cycles : 'a t -> int
(** Cycles in which at least one flit was forwarded ([Perf.busy]). *)

val input_occupancy : 'a t -> int
(** Flits currently staged or buffered across all input channels (the
    per-router "heatmap" gauge the metrics registry samples). *)

val set_obs : 'a t -> board:int -> track:int -> unit
(** Identity stamped on per-hop [Apiary_obs.Span] events: the owning
    board id and the tile index used as the span track. {!Mesh} sets the
    track at creation; boards set the board id. *)
