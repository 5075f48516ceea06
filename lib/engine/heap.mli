(** Array-based binary min-heap of [(key, tie, value)] entries, ordered
    by [key], then [tie]; both are ints compared inline. The engine's
    three queues use it:
    - {!Sim}'s far events: [(time, seq)], the closure as value;
    - {!Sim}'s [Idle_until] wakes: [(wake cycle, ticker index)], no value;
    - {!Par_sim}'s pending posts: [(time, source and per-source seq
      packed into one int)], the closure as value.

    All operations are imperative; the heap grows automatically. *)

type 'a t

val create : fill:'a -> 'a t
(** [create ~fill] is an empty heap. [fill] overwrites each value
    {!drop} removes, so the heap keeps no dropped value reachable. *)

val length : 'a t -> int
(** Number of entries currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> int -> int -> 'a -> unit
(** [push h key tie v] inserts an entry. O(log n). *)

val top_key : 'a t -> int
(** The least entry's key, left in place. Like {!top_tie} and {!top},
    it allocates nothing, so a drain loop can test {!is_empty} and read
    the top.
    @raise Invalid_argument if the heap is empty. *)

val top_tie : 'a t -> int
(** The least entry's tie. @raise Invalid_argument if the heap is empty. *)

val top : 'a t -> 'a
(** The least entry's value. @raise Invalid_argument if the heap is empty. *)

val drop : 'a t -> unit
(** Remove the least entry. O(log n).
    @raise Invalid_argument if the heap is empty. *)
