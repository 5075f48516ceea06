(** Segment allocator — variable-size allocation with coalescing free
    lists, the memory-isolation granularity Apiary chooses (§4.6).

    Tracks external fragmentation so the segment-vs-page comparison (E5)
    can quantify "resource stranding". *)

type policy = First_fit | Best_fit

type t

val create : base:int -> size:int -> policy -> t
(** Manage the byte range [\[base, base+size)]. *)

val alloc : t -> ?align:int -> int -> (int, [ `Out_of_memory ]) result
(** [alloc t n] reserves [n] bytes and returns the segment base address.
    [align] (default 64) rounds the base up to a boundary. Zero-size
    requests are rounded up to one byte. *)

val free : t -> int -> unit
(** [free t base] releases the segment allocated at [base].
    @raise Invalid_argument if [base] is not a live allocation. *)

val used_bytes : t -> int
val free_bytes : t -> int
val largest_free : t -> int
val free_block_count : t -> int

val check_invariants : t -> unit
(** Assert internal consistency (no overlap, full coverage, sorted,
    coalesced). For tests. *)
