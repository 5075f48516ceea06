(** Ethernet MAC "IP cores" and the portable adapter over them.

    The paper's portability complaint (§2) is concrete: Xilinx's 10G and
    100G MAC cores expose {e different} interfaces and reset processes, so
    supporting both needs extra infrastructure. We reproduce that
    situation faithfully with two deliberately incompatible device models,
    then provide the uniform adapter an OS would offer — the
    infrastructure Apiary promises applications they won't have to
    write. *)

module Sim := Apiary_engine.Sim

(** 10G-style core: single in-flight frame, explicit one-shot reset,
    polling-style busy flag. Transmit before reset completes is silently
    dropped (as real cores do). *)
module Teng : sig
  type t

  val create : Sim.t -> Link.t -> Link.side -> t
  val reset : t -> unit
  (** Takes 50 cycles; the core is unusable meanwhile. *)

  val ready : t -> bool
  val tx_busy : t -> bool
  val submit : t -> Frame.t -> bool
  (** [false] if not ready or busy. *)

  val set_rx : t -> (Frame.t -> unit) -> unit
  val dropped_tx : t -> int
end

(** 100G-style core: descriptor queue, interrupt-style RX, two-phase
    reset (assert, wait ≥ 100 cycles, release). *)
module Hundredg : sig
  type t

  val create : Sim.t -> Link.t -> Link.side -> t
  val assert_reset : t -> unit
  val release_reset : t -> unit
  (** Releasing earlier than 100 cycles after {!assert_reset} leaves the
      core unready (the real failure mode of getting a reset sequence
      wrong). *)

  val ready : t -> bool
  val post_tx : t -> Frame.t -> bool
  (** [false] when the 32-entry descriptor ring is full. *)

  val ring_occupancy : t -> int
  val set_rx_irq : t -> (Frame.t -> unit) -> unit
  val dropped_tx : t -> int
end

(** The portable interface (what Apiary's network service programs
    against). [create] performs the core-specific bring-up internally. *)
type t

type generation = Gen_10g | Gen_100g

val create : Sim.t -> generation -> Link.t -> Link.side -> t
val send : t -> Frame.t -> bool
(** Best-effort enqueue; [false] on device backpressure. *)

val set_rx : t -> (Frame.t -> unit) -> unit
val ready : t -> bool
val generation : t -> generation
