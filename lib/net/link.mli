(** Full-duplex point-to-point link.

    Each direction serializes frames at the link rate and delivers them
    after the propagation delay; back-to-back sends queue behind the
    transmitter (modelling the NIC/port FIFO). Corruption can be injected
    for FCS tests. *)

module Sim := Apiary_engine.Sim

type side = A | B

val flip : side -> side

type t

val create : Sim.t -> bytes_per_cycle:float -> prop_cycles:int -> t
(** 10 GbE at a 250 MHz fabric ≈ 5 B/cycle; 100 GbE ≈ 50 B/cycle.
    [prop_cycles] covers cable + PHY latency. *)

val create_split :
  sim_a:Sim.t ->
  sim_b:Sim.t ->
  post_to_a:(time:int -> (unit -> unit) -> unit) ->
  post_to_b:(time:int -> (unit -> unit) -> unit) ->
  bytes_per_cycle:float ->
  prop_cycles:int ->
  t
(** A link whose two endpoints live on different simulators (Par_sim
    partitions). Side X's transmit state advances on [sim_x]; a frame
    sent from X is handed to [post_to_(flip x)] with its absolute
    delivery cycle, which must schedule it on the far simulator
    (typically [Par_sim.post]). Because serialization takes ≥ 1 cycle,
    delivery is always ≥ [prop_cycles + 1] ahead of the send: the
    lookahead a conservative partitioning of this link supports. *)

val on_recv : t -> side -> (Frame.t -> unit) -> unit
(** Install the receiver for frames {e arriving at} [side]. *)

val send : t -> from:side -> Frame.t -> unit
(** Transmit; delivery fires on the opposite side after serialization +
    propagation. Corrupted frames are dropped at the receiver (counted). *)

val busy_until : t -> side -> int
(** Cycle until which [side]'s transmitter is occupied. *)

val set_corrupt_next : t -> from:side -> unit
(** Flip a payload bit in the next frame sent from [side] (FCS test). *)

val frames_dropped : t -> int
(** Frames discarded for FCS errors. *)
