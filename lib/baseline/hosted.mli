(** The host-mediated baseline (Coyote/AmorphOS deployment model):
    the FPGA accelerator hangs off a server CPU, and every request
    traverses NIC → host kernel/user software → PCIe → accelerator →
    PCIe → host → NIC.

    The server attaches to the same switch fabric and speaks the same
    {!Apiary_net.Netproto} envelope as a direct-attached Apiary board, so
    the identical client drives both systems (experiment E2). Timing
    constants default to published numbers converted to 250 MHz fabric
    cycles (4 ns each): ~2 µs interrupt-driven NIC+kernel path, ~0.9 µs
    PCIe DMA latency, PCIe3 x16 streaming bandwidth. *)

module Sim := Apiary_engine.Sim
module Stats := Apiary_engine.Stats

type config = {
  nic_cycles : int;  (** NIC + IRQ + kernel network stack, per direction. *)
  host_cores : int;
  host_service_cycles : int;  (** user-space dispatch/software path. *)
  host_per_byte_x16 : int;  (** copy cost per 16 bytes. *)
  pcie_lat_cycles : int;  (** DMA doorbell-to-data latency, per direction. *)
  pcie_bytes_per_cycle : int;  (** PCIe3 x16 ≈ 64 B/cycle at 250 MHz. *)
  accel_slots : int;  (** concurrent requests the accelerator overlaps. *)
}

val default_config : config

type t

val create :
  Sim.t -> config -> mac:Apiary_net.Mac.t -> my_mac:int ->
  accel_cycles:(int -> int) -> handler:(int -> bytes -> bytes) -> t
(** [accel_cycles body_len] is the accelerator compute time (use the same
    cost model as the FPGA-resident accelerator for a fair comparison);
    [handler op body] computes the actual response. *)

val served : t -> int

val host_busy_cycles : t -> int
(** Total CPU busy time — the energy model's main input. *)

val accel_busy_cycles : t -> int
