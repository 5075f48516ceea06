(** NoC packets.

    A packet is the unit of end-to-end transfer; it is carried as a train of
    flits (head + payload flits, see {!Fabric}) that hold a wormhole path
    through the mesh.
    The payload is an opaque value of type ['a] — the NoC layer never
    inspects it, which keeps this library independent of the OS layer that
    rides on it.  Flit accounting uses the byte size reported at creation
    time so bandwidth and serialization latency are modelled faithfully. *)

type 'a t = private {
  src : Coord.t;
  dst : Coord.t;
  cls : int;  (** Virtual-channel / QoS class; [0] is best-effort. *)
  size_flits : int;  (** Total flits including the head flit. *)
  payload : 'a;
  injected_at : int;  (** Cycle the packet entered the source NIC. *)
  corr : int;  (** RPC correlation id riding with the packet; [0] = none. *)
  mutable hop_ts : int;
      (** Cycle the head flit last advanced (injection, then each router);
          routers use it to attribute per-hop queueing time. *)
}

val make :
  src:Coord.t ->
  dst:Coord.t ->
  cls:int ->
  size_flits:int ->
  corr:int ->
  payload:'a ->
  now:int ->
  'a t
(** Create a packet sent at cycle [now]; [size_flits >= 1]. *)

val set_hop_ts : 'a t -> int -> unit
(** Restamp {!field-hop_ts} (the type is [private], so hop bookkeeping
    goes through this). *)

val flits_for : flit_bytes:int -> payload_bytes:int -> int
(** Number of flits needed for a payload of the given size: one head flit
    (carrying routing info and the first bytes) plus as many body flits as
    required. Always at least 1. *)

val hops : 'a t -> int
(** Manhattan source→destination distance. *)
