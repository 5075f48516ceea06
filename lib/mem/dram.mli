(** Banked DRAM controller with open-row timing.

    Models the memory the paper's tiles share: per-bank open-row state
    (row hit = CAS only; row miss = precharge + activate + CAS), a shared
    data bus per channel, and bounded per-bank request queues. Requests
    complete asynchronously via callbacks. The array is backed by real
    bytes, so accelerators that store data in "DRAM" read back exactly what
    they wrote — memory-isolation experiments corrupt and verify real
    contents. The bytes are demand-paged in 4 KiB pages, allocated on
    first write; never-written bytes read as zero. Paging costs host
    memory only where a run writes and does not affect timing.

    Every access below raises [Invalid_argument] at the call unless
    [addr >= 0], [len >= 0] and [addr + len <= size]. *)

module Sim := Apiary_engine.Sim

(** {1 Geometry and timing}

    One value each: a DDR4-ish controller seen from the 250 MHz fabric
    clock, with one channel of 8 banks and a 16 bytes/cycle data bus
    shared by the banks. Every board's kernel builds its DRAM from
    these and no experiment varies them: the paper's claims concern the
    monitor and the NoC, not the memory controller's timing. *)

val row_bytes : int
(** 2,048: a 2 KiB row. Addresses interleave across banks row by row,
    so a sequential stream stays in one open row. *)

val t_cas : int
(** 8 cycles of column access: a row hit costs this alone. *)

val t_rcd : int
(** 8 cycles to activate a row. *)

val t_rp : int
(** 8 cycles to precharge: a row miss costs [t_rp + t_rcd + t_cas]. *)

val queue_depth : int
(** 16 requests per bank; a submission to a full queue is refused. *)

type t

val create : Sim.t -> size_bytes:int -> t
val size : t -> int

val read : t -> addr:int -> len:int -> (bytes -> unit) -> bool
(** Submit a read; the callback fires with the data when the access
    completes. Returns [false] (request dropped) when the bank queue is
    full — callers must retry. *)

val write : t -> addr:int -> bytes -> (unit -> unit) -> bool
(** Submit a write of the whole buffer at [addr]. *)

val peek : t -> addr:int -> len:int -> bytes
(** Zero-time backdoor read (for tests and integrity checks only). *)

val poke : t -> addr:int -> bytes -> unit
(** Zero-time backdoor write. *)

(** Statistics *)

val row_hits : t -> int
val row_misses : t -> int
val bytes_transferred : t -> int
