(** The host-mediated baseline (Coyote/AmorphOS deployment model):
    the FPGA accelerator hangs off a server CPU, and every request
    traverses NIC → host kernel/user software → PCIe → accelerator →
    PCIe → host → NIC.

    The server attaches to the same switch fabric and speaks the same
    {!Apiary_net.Netproto} envelope as a direct-attached Apiary board, so
    the identical client drives both systems (experiment E2). Its timing
    is one set of published numbers converted to 250 MHz fabric cycles
    (4 ns each): ~2 µs interrupt-driven NIC+kernel path, ~0.9 µs PCIe
    DMA latency, PCIe3 x16 streaming bandwidth. E2 compares Apiary
    against this one host, so nothing varies them:

    - 2 host cores, each request spending 375 cycles (~1.5 µs) of
      user-space dispatch plus 1 cycle per 16 bytes copied, on the way
      in and again on the way out;
    - 225 cycles (~0.9 µs) of DMA latency per PCIe crossing, at 64
      bytes per cycle (PCIe3 x16) on one shared DMA engine;
    - an accelerator that serves one request at a time. *)

module Sim := Apiary_engine.Sim
module Stats := Apiary_engine.Stats

val nic_cycles : int
(** 500 cycles (~2 µs) of NIC, interrupt and kernel network stack per
    direction. E2's energy line charges them as CPU time. *)

type t

val create :
  Sim.t -> mac:Apiary_net.Mac.t -> my_mac:int ->
  accel_cycles:(int -> int) -> handler:(int -> bytes -> bytes) -> t
(** [accel_cycles body_len] is the accelerator compute time (use the same
    cost model as the FPGA-resident accelerator for a fair comparison);
    [handler op body] computes the actual response. *)

val served : t -> int

val host_busy_cycles : t -> int
(** Total CPU busy time — the energy model's main input. *)

val accel_busy_cycles : t -> int
