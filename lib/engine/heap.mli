(** Array-based binary min-heap: {!Par_sim}'s per-member queue of
    pending cross-partition posts.

    Elements are ordered by a comparison function supplied at creation.
    All operations are imperative; the heap grows automatically. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Insert an element. O(log n). *)

val top : 'a t -> 'a
(** Smallest element, left in place. Allocates nothing, so a drain
    loop can test [is_empty] and read [top].
    @raise Invalid_argument if the heap is empty. *)

val drop : 'a t -> unit
(** Remove the smallest element. O(log n).
    @raise Invalid_argument if the heap is empty. *)
