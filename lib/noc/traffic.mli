(** Synthetic traffic generation for NoC characterization.

    Drives a mesh with classic patterns (uniform random, hotspot, transpose,
    bit-complement, nearest-neighbour) at a configurable injection rate —
    the standard methodology for throughput/latency curves (E3, E9). *)

module Rng := Apiary_engine.Rng

type pattern =
  | Uniform  (** destination uniform over all other tiles *)
  | Hotspot of Coord.t * float
      (** [(hot, frac)]: with probability [frac] target [hot], else uniform *)
  | Transpose  (** (x,y) -> (y,x) *)
  | Bit_complement  (** (x,y) -> (cols-1-x, rows-1-y) *)
  | Neighbor  (** fixed right neighbour (wraps) *)

val pattern_to_string : pattern -> string

val destination :
  Rng.t -> pattern -> cols:int -> rows:int -> src:Coord.t -> Coord.t
(** Sample a destination tile (never equal to [src] for randomized
    patterns; deterministic patterns may map a tile to itself, in which
    case the caller should skip injection). *)

type gen

val start :
  'a Mesh.t ->
  rng:Rng.t ->
  pattern:pattern ->
  rate:float ->
  payload_bytes:int ->
  ?cls:int ->
  payload:'a ->
  unit ->
  gen
(** Attach a Bernoulli open-loop generator to every tile of the mesh:
    each cycle each tile independently injects a packet with probability
    [rate] (packets/tile/cycle). Runs until {!stop_gen}.

    The generator pre-draws its RNG stream ahead of the clock (in the
    exact per-cycle/per-tile order a cycle-by-cycle generator would),
    buffers upcoming injections, and reports [Idle_until] the next one —
    so the simulator fast-forwards dead air instead of ticking the
    generator every cycle, with a byte-identical injection sequence. *)

val stop_gen : gen -> unit
val offered : gen -> int
(** Packets offered so far. *)
