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

type config = {
  channels : int;
  banks_per_channel : int;
  row_bytes : int;
  t_cas : int;  (** column access, cycles *)
  t_rcd : int;  (** row activate *)
  t_rp : int;  (** precharge *)
  bus_bytes_per_cycle : int;
  queue_depth : int;  (** per-bank request queue bound *)
}

val default_config : config
(** 1 channel, 8 banks, 2 KiB rows, CAS/RCD/RP = 8/8/8 cycles at fabric
    clock, 16 B/cycle bus, queue depth 16 — a DDR4-ish controller seen
    from a 250 MHz fabric. *)

type t

val create : Sim.t -> config -> size_bytes:int -> t
val size : t -> int
val config : t -> config

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

val reads : t -> int
val writes : t -> int
val row_hits : t -> int
val row_misses : t -> int
val bytes_transferred : t -> int
