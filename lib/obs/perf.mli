(** Hardware-style performance-counter block (one per tile monitor, one
    per NoC router).

    A block is a fixed bank of counters with {e architected slot
    numbers}: slot [flits] is always flits forwarded, slot [denials]
    always capability denials, and so on — the layout is part of the
    in-band wire format ({!encode}/{!decode}), so the stat service can
    ship a block across the fabric (or the rack network) as raw bytes
    and any reader decodes it positionally, like a memory-mapped counter
    page in real silicon.

    Counters are updated cycle-accurately by their owning component and
    never influence simulation behaviour, so enabling readers cannot
    perturb a run. [occ_peak] is a high-watermark (aggregates by max);
    every other slot is a monotonic event count (aggregates by sum). *)

type t

(** {1 Architected slots} *)

val flits : int
(** Flits forwarded by a router. *)

val busy : int
(** Cycles a router moved at least one flit. *)

val credit_stalls : int
(** Arbitration candidates blocked only by an empty credit counter. *)

val occ_peak : int
(** Input-buffer occupancy high-watermark. *)

val msgs_in : int
(** Messages delivered into the monitor. *)

val msgs_out : int
(** Messages admitted onto the NoC. *)

val syscalls : int
(** Shell calls that enqueued monitor egress. *)

val denials : int
(** Egress denied by capability/reply-window checks. *)

val drops : int
(** Messages dropped (full queues, late replies). *)

val nacks : int
(** NACKs emitted by a fail-stopped tile. *)

val faults : int
(** Fail-stop transitions. *)

val heartbeats : int
(** Health-layer liveness checks passed. *)

val n_counters : int
val name : int -> string

(** {1 Operations} *)

val create : unit -> t
val read : t -> int -> int
val incr : t -> int -> unit
val add : t -> int -> int -> unit
val set_max : t -> int -> int -> unit
(** Raise a watermark slot to [v] if below it. *)

val merge_into : src:t -> dst:t -> unit
(** Aggregate [src] into [dst]: watermarks by max, counts by sum — a
    board summary is itself a well-formed block. *)

(** {1 In-band wire format} *)

val encoded_size : int
(** [n_counters * 8] bytes: big-endian u64 per slot, no header. *)

val encode : t -> bytes
val decode : bytes -> t option
(** [None] if the payload is not exactly {!encoded_size} bytes. *)
