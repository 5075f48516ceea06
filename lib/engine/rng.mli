(** Deterministic, splittable pseudo-random number generator.

    Every source of randomness in the simulator flows through this module so
    that a run is a pure function of its seed.  The core generator is
    SplitMix64 (Steele et al., OOPSLA'14), which is fast, has a 64-bit state,
    and splits cleanly into independent streams. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (for Poisson
    arrival processes). *)

val zipf : t -> n:int -> theta:float -> int
(** Zipfian sample in [\[0, n)] with skew [theta] (YCSB-style key
    popularity).  [theta = 0.] degenerates to uniform. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] random bytes. *)

val bytes_compressible : t -> int -> redundancy:float -> bytes
(** [bytes_compressible t n ~redundancy] generates [n] bytes where
    [redundancy] in [\[0,1\]] controls how repetitive the content is
    (0 = random, 1 = a single repeated byte) — used to drive the
    compressor accelerators with realistic inputs. *)
