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

module Fifo := Apiary_engine.Fifo
module Sim := Apiary_engine.Sim

(** A buffered flit channel: a router input buffer or a NIC ejection
    buffer. [on_pop] is invoked each time a flit is drained, and is wired
    by {!Mesh} to return a credit upstream. [occ] points at the owning
    component's aggregate occupancy counter (staged + committed flits
    across all of its channels), which lets the owner's tick return
    immediately when it holds no flits. *)
type 'a chan = {
  buf : 'a Packet.Flit.t Fifo.t;
  mutable on_pop : unit -> unit;
  occ : int ref;
}

val make_chan : ?counter:int ref -> Sim.t -> depth:int -> string -> 'a chan
(** Create a free-standing channel (used for NIC ejection buffers).
    [counter] is the owner's shared occupancy counter; defaults to a
    fresh private one. *)

val chan_push : 'a chan -> 'a Packet.Flit.t -> bool
(** Stage a flit into the channel (visible after commit) and bump the
    owner's occupancy counter. All pushes into a channel must go through
    this, never [Fifo.push] directly, or occupancy tracking desyncs. *)

val chan_push_exn : 'a chan -> 'a Packet.Flit.t -> unit
(** Like {!chan_push} but raises [Failure] when full. *)

val chan_pop : 'a chan -> 'a Packet.Flit.t option
(** Drain one flit, decrement the occupancy counter and fire the
    credit-return hook. *)

val chan_pop_exn : 'a chan -> 'a Packet.Flit.t
(** Like {!chan_pop} but raises [Queue.Empty] instead of allocating an
    option. Check [Fifo.is_empty chan.buf] first on hot paths. *)

type 'a t

val create :
  Sim.t ->
  coord:Coord.t ->
  vcs:int ->
  depth:int ->
  routing:Routing.t ->
  qos:bool ->
  'a t
(** Create a router and register its per-cycle tick with the simulator.
    Input-channel arrivals re-arm the router when it is parked. *)

val handle : 'a t -> Sim.handle
(** The router's ticker (see [Sim.armed]). *)

val coord : 'a t -> Coord.t
val vcs : 'a t -> int

val input_chan : 'a t -> Port.t -> int -> 'a chan
(** The input buffer for ([port], [vc]) — neighbours and NICs push into
    it (respecting its capacity, which credits guarantee). *)

val connect : 'a t -> port:Port.t -> vc:int -> dest:'a chan -> credits:int -> unit
(** Wire the output ([port], [vc]) to a downstream channel with an initial
    credit allowance equal to that channel's buffer depth. *)

val credit : 'a t -> port:Port.t -> vc:int -> unit
(** Return one credit to output ([port], [vc]). *)

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
