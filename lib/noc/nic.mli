(** Network interface between a tile and its router's [Local] port.

    Transmit side: per-class unbounded packet queues (the OS layer above is
    responsible for policing; see the Apiary monitor). One flit is injected
    per cycle; the highest class with pending work wins when QoS is enabled,
    and packets within a class are injected contiguously so wormhole
    ordering holds per VC.

    Receive side: one flit per VC is drained from the ejection buffers each
    cycle; when a tail flit arrives, the full packet is delivered to the
    receive callback. *)

module Sim := Apiary_engine.Sim

type 'a t

val create :
  Sim.t -> 'a Router.Fabric.t -> router:'a Router.t -> tile:int -> qos:bool -> 'a t
(** Create [tile]'s NIC, wire [router]'s [Local] outputs to its ejection
    channels in the mesh's fabric and register its tick. A packet holds a
    packet-table slot from its head flit's injection until its tail
    flit's ejection. *)

val handle : 'a t -> Sim.handle
(** The NIC's ticker (see [Sim.armed]). *)

val coord : 'a t -> Coord.t

val send :
  'a t -> dst:int -> cls:int -> corr:int -> size_flits:int -> now:int -> 'a -> unit
(** Queue a packet for tile index [dst], sent at cycle [now]. Its
    {!Packet.t} is built when its head flit is injected. *)

val set_rx : 'a t -> ('a Packet.t -> unit) -> unit
(** Set the delivery callback (replaces any previous one). *)

val tx_backlog : 'a t -> int
(** Packets queued or in flight on the transmit side. *)

val injected : 'a t -> int
(** Packets fully injected so far. *)

val delivered : 'a t -> int
(** Packets delivered to the receive callback so far. *)

val set_obs : 'a t -> board:int -> track:int -> unit
(** Identity stamped on inject/eject [Apiary_obs.Span] instants (see
    {!Router.set_obs}). *)
