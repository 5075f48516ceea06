module Mac := Apiary_net.Mac
module Sim := Apiary_engine.Sim

(** A service hosted on a remote CPU, reachable over the datacenter
    network — the paper's §6-Q3 escape hatch: "take advantage of the
    network capabilities of Apiary and place the service on any remote
    CPU, maintaining the ability to use an FPGA independent of its
    on-node CPU".

    Unlike {!Hosted}, there is no PCIe or accelerator stage: requests hit
    the NIC, cross the kernel, run a software handler and return. Used by
    experiment E11 to price remoting an OS function vs implementing it in
    fabric. *)

type t

val create :
  Sim.t -> mac:Mac.t -> my_mac:int -> ?nic_cycles:int ->
  handler:(service:string -> op:int -> bytes -> bytes) -> unit -> t
(** [nic_cycles] is the NIC+kernel path per direction (default 500
    cycles, 2 µs); E11 sweeps it. The host has 2 cores and spends 250
    cycles (1 µs) in the handler per request: every caller uses those
    values, so they are fixed. *)
