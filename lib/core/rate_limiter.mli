(** Token-bucket rate limiter — the monitor's defence against resource
    exhaustion by a babbling or malicious accelerator (paper §4.5).

    Tokens are measured in flits. The bucket refills at [rate] flits per
    cycle up to [burst]; a message may leave the monitor only when the
    bucket holds its full flit cost. *)

type t

val create : rate:float -> burst:int -> t
(** [rate] must be positive; [burst] at least 1 and at least as large as
    the largest message the tile sends (or that message can never pass). *)

val unlimited : unit -> t
(** A limiter that always admits (used when enforcement is off). *)

val advance : t -> now:int -> unit
(** Refill for elapsed cycles. Idempotent per cycle. *)

val try_take : t -> int -> bool
(** [try_take t n] consumes [n] tokens if available. *)

val would_admit : t -> int -> bool
(** [would_admit t n] — are [n] tokens available right now? Does not
    consume and does not count a stall. Use before taking from several
    buckets atomically. *)

val take : t -> int -> unit
(** Unconditionally consume (caller checked {!would_admit}). *)

val stalled_msgs : t -> int
(** Number of admission attempts that were refused (for stats). *)
