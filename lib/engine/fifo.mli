(** Bounded two-phase FIFO modelling a registered hardware queue.

    Pushes are staged and become visible only after the simulator's commit
    phase at the end of the cycle, so a value written in cycle [t] can be
    popped no earlier than cycle [t+1]. Capacity accounts for staged
    entries, so producers see backpressure one cycle early — exactly the
    behaviour of a synchronous FIFO with registered full/empty flags. *)

type 'a t

val create : ?capacity:int -> Sim.t -> 'a t
(** [create ~capacity sim] makes a FIFO whose staged pushes commit
    in [sim]'s commit phase. The FIFO enlists itself in the simulator's
    dirty list on its first staged push of a cycle ({!Sim.mark_dirty}),
    so a cycle's commit cost is O(FIFOs written), not O(FIFOs alive).
    Default capacity is unbounded. *)

val set_owner : 'a t -> Sim.handle -> unit
(** Register the consuming ticker's handle: it is re-armed whenever
    entries become visible (at commit), so a parked consumer is
    guaranteed to see every delivery. Default {!Sim.no_handle} (no
    re-arm). *)

val push : 'a t -> 'a -> bool
(** Stage a value for commit at end of cycle. Returns [false] (and drops
    nothing) when the queue, counting staged entries, is full. *)

val pop : 'a t -> 'a option
(** Take the oldest committed value. *)

val peek : 'a t -> 'a option

val length : 'a t -> int
(** Committed entries only (what a consumer can see this cycle). *)

val occupancy : 'a t -> int
(** Committed + staged entries (what a producer must respect). *)

val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val clear : 'a t -> unit
(** Drop all committed and staged entries (used for fault drains). *)
