(** One board of a rack: an {!Apiary_apps.Board} (kernel + mesh + MAC +
    network service) attached to the shared ToR switch, with a rack-wide
    identity (board id and MAC address) and a free-tile allocator the
    cluster installs services through.

    The node's kernel is stamped with the board id at creation, so every
    span it records is attributed to this board in one rack-wide
    capture, and its flight ring's postmortem names the board. *)

module Sim := Apiary_engine.Sim
module Kernel := Apiary_core.Kernel
module Switch := Apiary_net.Switch
module Netsvc := Apiary_net.Netsvc
module Board := Apiary_apps.Board

type t = {
  id : int;
  port : int;  (** ToR switch port the board's MAC is wired to *)
  board : Board.t;
  mutable free_tiles : int list;
  mutable up : bool;  (** administratively up (see {!Cluster.kill}) *)
}

val mac_of_id : int -> int
(** Board MAC addresses: 0x02_0000_0B0000 + id. *)

val create :
  ?kernel_cfg:Kernel.config ->
  ext_link:Apiary_net.Link.t ->
  Sim.t ->
  switch:Switch.t ->
  id:int ->
  port:int ->
  t
(** [sim] is the board's own engine member; [ext_link] (see
    {!Apiary_apps.Board.create}) is its uplink, split between that
    member and the switch's. *)

val id : t -> int
val port : t -> int
val board : t -> Board.t
val kernel : t -> Kernel.t
val sim : t -> Sim.t
val mac_addr : t -> int
val net_stats : t -> Netsvc.stats
val up : t -> bool

val alloc_tile : t -> int option
(** Next free user tile (the network-service tile is never handed out). *)

val free_tiles : t -> int list
