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
  Sim.t -> mac:Mac.t -> my_mac:int -> ?nic_cycles:int -> ?cores:int ->
  ?service_cycles:int ->
  handler:(service:string -> op:int -> bytes -> bytes) -> unit -> t
(** Defaults: 500-cycle (2 µs) NIC+kernel path per direction, 2 cores,
    250-cycle (1 µs) handler time. *)
