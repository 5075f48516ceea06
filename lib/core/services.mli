(** Apiary's built-in OS services — ordinary tile behaviors occupying
    accelerator slots (paper Figure 1: "an accelerator {e or} Apiary
    service"), distinguished only by running on privileged tiles.

    - the {b name service} maps logical service names to physical tiles,
      realizing the API-level naming the paper moves out of the wires;
    - the {b memory service} owns the DRAM controller and the segment
      allocator and hands out segment capabilities.

    Hang detection is not a service: see {!Health}. *)

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
