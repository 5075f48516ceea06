(** The Apiary static region: boots the fabric, wires monitors to the
    NoC, hosts the OS service tiles, and orchestrates partial
    reconfiguration.

    In hardware this is the logic outside the dynamically reconfigurable
    slots (paper §4.1): the NoC, the per-tile monitors, and the boot-time
    placement of OS services. Everything an application does afterwards
    goes through its tile's {!Monitor}/{!Shell}. *)

module Sim := Apiary_engine.Sim
module Mesh := Apiary_noc.Mesh
module Coord := Apiary_noc.Coord
module Dram := Apiary_mem.Dram
module Seg_alloc := Apiary_mem.Seg_alloc

type config = {
  mesh : Mesh.config;
  monitor : Monitor.config;
  monitor_overrides : (int * Monitor.config) list;
      (** Per-tile monitor configs (e.g. an enforcement-off tile). *)
  dram_bytes : int;  (** Carved into segments first-fit. *)
  mem_tile : int;
      (** Tile hosting the memory service; place it at the edge where the
          controller pins would be (default: last tile). It must not be
          tile 0, the name service's. *)
}

val default_config : config
(** 4x4 mesh, enforcing monitors, 64 MiB DRAM. Fixed: the name service
    runs on tile 0, and the DRAM has {!Dram.default_config}'s
    geometry and timing (one channel of 8 banks, 2 KiB rows, CAS, RCD
    and RP of 8 cycles, 16 bytes per cycle, 16-deep queue). *)

val pr_bytes_per_cycle : int
(** Partial-reconfiguration port bandwidth, 8 bytes/cycle: {!reconfigure}
    holds a tile offline [max 1 (bitstream_bytes / pr_bytes_per_cycle)]
    cycles, and the rack scheduler predicts PR time the same way. *)

type t

val create : Sim.t -> config -> t

(** {1 Topology} *)

val sim : t -> Sim.t
val n_tiles : t -> int
val coord_of_tile : t -> int -> Coord.t
val name_tile : t -> int
(** Always 0. *)

val mem_tile : t -> int

val user_tiles : t -> int list
(** Tiles available for accelerators (everything but the OS services). *)

(** {1 Components} *)

val mesh : t -> Message.t Mesh.t
val allocator : t -> Seg_alloc.t

val flight : t -> Apiary_obs.Flight.t
(** The board's bounded flight ring, shared by every monitor: the
    per-board sink of the monitor event stream. Disabled by default; arm
    it with [Apiary_obs.Flight.set_enabled] (or boot with
    [APIARY_FLIGHT=1], see [Apiary_obs.Flight.of_env]) and read it with
    [Apiary_obs.Flight.entries], or dump it from an {!on_fault}
    subscriber. *)

val monitor : t -> int -> Monitor.t

(** {1 Application management} *)

val install : t -> tile:int -> Monitor.behavior -> unit
(** Program a user tile's slot with a behavior (boots next cycle).
    @raise Invalid_argument for OS service tiles. *)

val reconfigure :
  t -> tile:int -> bitstream_bytes:int -> Monitor.behavior ->
  on_done:(unit -> unit) -> unit
(** Partial reconfiguration (E10): quiesce the tile (revoking its
    capabilities and unregistering its names), hold it offline for the
    bitstream load time, then boot the new behavior. *)

val restart_tile : t -> tile:int -> Monitor.behavior -> unit
(** Immediate replacement after a fail-stop (no PR delay modelled). *)

(** {1 Faults} *)

val on_fault : t -> (int -> string -> unit) -> unit
(** Subscribe to fail-stop notifications. *)

val faults : t -> (int * string) list
(** All fail-stops so far, oldest first. *)

(** {1 Aggregate statistics} *)

val total_denied : t -> int
val total_msgs : t -> int
val total_dropped : t -> int

(** {1 Observability} *)

val set_obs_board : t -> int -> unit
(** Stamp the board id on this kernel's flight ring (which the monitors
    read for their own [Apiary_obs.Span] events) and on the mesh (routers
    and NICs), so every span and flight entry from this board is
    attributed to it in exported views and postmortem dumps. *)

val register_metrics : t -> prefix:string -> unit
(** Install [Apiary_obs.Registry] samplers (under [prefix ^ ".kernel"]
    and the mesh's [prefix ^ ".noc"]) publishing capability denials,
    drops, fault transitions, per-tile monitor added-latency histograms
    and the NoC heatmap gauges. Re-attaching with the same prefix
    replaces the previous samplers. *)
