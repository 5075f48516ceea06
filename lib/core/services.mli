(** Apiary's built-in OS services — ordinary tile behaviors occupying
    accelerator slots (paper Figure 1: "an accelerator {e or} Apiary
    service"), distinguished only by running on privileged tiles.

    - the {b name service} maps logical service names to physical tiles,
      realizing the API-level naming the paper moves out of the wires;
    - the {b memory service} owns the DRAM controller and the segment
      allocator and hands out segment capabilities;
    - the {b management service} is the debugging/monitoring plane:
      periodic liveness probes over the message layer. *)

module Dram := Apiary_mem.Dram
module Seg_alloc := Apiary_mem.Seg_alloc

val name_service : unit -> Monitor.behavior * (int -> unit)
(** Returns the behavior and an [unregister tile] function the kernel
    calls when a tile fail-stops or is reconfigured, so stale names do not
    resolve. *)

val mem_service : Dram.t -> Seg_alloc.t -> Monitor.behavior
(** Serves [Alloc_req]/[Free_req] (minting/revoking segment capabilities
    for the requesting tile) and [Mem_read_req]/[Mem_write_req] against
    the DRAM model. Trusts the source monitor's capability check — the
    monitor is the enforcement point; this is what makes the
    enforcement-off baseline (E4) actually corruptible. *)

(** Tile health as seen by the management service. *)
type health = Alive | Suspect of int  (** missed probe count *) | Dead

val health_to_string : health -> string

type mgmt
(** Handle to a running management service's state. *)

val mgmt_service :
  ?period:int -> ?probe_timeout:int -> ?dead_after:int -> tiles:int list ->
  unit -> Monitor.behavior * mgmt
(** Probes each tile's app endpoint every [period] cycles (default 2000).
    A tile missing [dead_after] consecutive probes (default 3) is declared
    {!Dead}. *)

val health_of : mgmt -> int -> health
val dead_tiles : mgmt -> int list
