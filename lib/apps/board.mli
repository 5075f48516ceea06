(** A complete direct-attached FPGA board in its rack context: the Apiary
    kernel on the fabric, a MAC wired to a ToR switch, the network OS
    service bridging the two, and helpers to hang client hosts off the
    switch.

    This is the top-level assembly every example and experiment starts
    from. *)

module Sim := Apiary_engine.Sim
module Kernel := Apiary_core.Kernel
module Mac := Apiary_net.Mac
module Switch := Apiary_net.Switch
module Netsvc := Apiary_net.Netsvc
module Client := Apiary_net.Client
module Link := Apiary_net.Link

type t = {
  sim : Sim.t;
  kernel : Kernel.t;
  switch : Switch.t;
  fpga_mac : Mac.t;
  fpga_mac_addr : int;
  net_tile : int;  (** tile hosting the network service *)
  net_stats : Netsvc.stats;
}

val fpga_mac_addr : int
(** 0x02_000000_F0CA (locally administered). *)

val gbps_to_bytes_per_cycle : float -> float
(** Link rate conversion at the 250 MHz fabric clock (10 Gb/s = 5
    B/cycle). *)

val create :
  ?kernel_cfg:Kernel.config ->
  ?mac_gen:Mac.generation ->
  ?attach:Switch.t * int ->
  ?mac_addr:int ->
  ?ext_link:Link.t ->
  Sim.t ->
  t
(** Defaults: 100G board MAC on port 0 of a private 8-port 1 µs switch,
    so ports 1–7 take clients. The network service always runs on the
    kernel's first user tile, and a private switch always has 8 ports:
    every board the benches, CLI and examples build uses both.

    [attach:(switch, port)] wires the board's MAC into an existing
    switch at the given port instead of creating a private one —
    several boards sharing one ToR switch is how {!Apiary_cluster}
    builds a rack. [mac_addr] overrides
    the board's MAC address (mandatory for multi-board setups, where
    each board needs a distinct identity).

    [ext_link] supplies the board's uplink instead of creating one —
    used by {!Apiary_cluster} to hand in a {!Link.create_split} when the
    board and its ToR switch live on different Par_sim partitions. The
    board's MAC is always side [A]; the switch side [B]. *)

val add_client_port :
  t -> port:int -> ?gbps:float -> unit -> Mac.t * int
(** Attach a host NIC to a switch port (default 10 Gb/s); returns the
    MAC adapter and its address — feed these to {!Apiary_net.Client} or a
    {!Apiary_baseline.Hosted} server. *)

val client : t -> port:int -> ?gbps:float -> unit -> Client.t
(** Convenience: an {!Apiary_net.Client} aimed at this board. *)

val user_tiles : t -> int list
(** Kernel user tiles minus the network-service tile. *)
