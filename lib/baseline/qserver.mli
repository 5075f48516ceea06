(** FCFS multi-server queueing resource (CPU cores, DMA engines,
    accelerator slots) for the host-mediated baseline. *)

module Sim := Apiary_engine.Sim

type t

val create : Sim.t -> servers:int -> t

val submit : t -> cycles:int -> (unit -> unit) -> unit
(** Enqueue a job needing [cycles] of service; the callback fires at
    completion. Jobs start in submission order as servers free up. *)

val busy_cycles : t -> int
(** Total service cycles consumed (for utilization/energy accounting). *)

val completed : t -> int
