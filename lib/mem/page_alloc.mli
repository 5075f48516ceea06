(** Paged virtual-memory baseline for the §4.6 comparison.

    Fixed-size page frames, per-process page tables, and a TLB with a
    modelled walk latency. Used by experiment E5 to contrast page-based
    translation against Apiary's segments-with-capabilities: internal
    fragmentation, allocation failure behaviour, and per-access translation
    cost. *)

type t

val create : base:int -> size:int -> page_bytes:int -> t
(** Manage [size] bytes of physical frames starting at [base];
    [page_bytes] must divide [size]. *)

val page_bytes : t -> int
val free_frames : t -> int

(** Per-process address space. *)
module Space : sig
  type alloc = t

  type t

  val create : alloc -> tlb_entries:int -> walk_cycles:int -> t

  val map : t -> int -> (int, [ `Out_of_memory ]) result
  (** [map sp n] maps [ceil(n / page_bytes)] pages of fresh memory at the
      next free virtual address; returns the virtual base. Physical frames
      may be discontiguous. *)

  val unmap : t -> vbase:int -> len:int -> unit
  (** Unmap the pages covering [\[vbase, vbase+len)] and release their
      frames. *)

  val translate : t -> int -> (int * int, [ `Fault ]) result
  (** [translate sp vaddr] is [(paddr, cycles)]: the physical address and
      the translation latency (1 on TLB hit, the walk cost on miss). *)

  val mapped_bytes : t -> int
  (** Bytes of physical memory backing this space (page granular). *)

  val internal_fragmentation : t -> int
  (** Bytes allocated beyond what was requested, page rounding waste. *)

  val tlb_hits : t -> int
end
