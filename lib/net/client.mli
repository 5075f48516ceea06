(** Datacenter client host: load generation against a networked service.

    Closed-loop mode keeps a fixed number of requests outstanding (each
    completion immediately issues the next); open-loop mode issues
    requests as a Poisson process regardless of completions, which is
    what exposes queueing at high load. End-to-end latency (request frame
    out to response frame in) is recorded per request. *)

module Sim := Apiary_engine.Sim
module Stats := Apiary_engine.Stats

type t

val create : Sim.t -> mac:Mac.t -> my_mac:int -> server_mac:int -> t

type workload = {
  service : string;
  op : int;
  gen : int -> bytes;  (** request body for the n-th request *)
}

val start_closed : t -> workload -> concurrency:int -> unit
(** Keep [concurrency] requests in flight until {!stop}. *)

val start_open : t -> workload -> rate:float -> unit
(** Poisson arrivals at [rate] requests/cycle until {!stop}. *)

val stop : t -> unit

val issued : t -> int
val completed : t -> int
val errors : t -> int
(** Responses with non-OK status. *)

val latency : t -> Stats.Histogram.t

val on_response : t -> (Netproto.response -> unit) -> unit
(** Optional hook to inspect response bodies (e.g. KV verification). *)
