(** Keyspace sharding across boards.

    A consistent-hash ring ({!t}) with virtual nodes: removing one board
    moves only that board's share of the keyspace onto survivors, and
    re-adding it restores the original mapping — the stability property
    the cluster relies on for resharding during a board failure. Plus a
    trivial round-robin spreader ({!Rr}) for stateless services.

    Both are pure bookkeeping (no simulation handles), so placement is a
    deterministic function of the live board set and the key. *)

type t

val create : ?vnodes:int -> unit -> t
(** [vnodes] points per board on the ring (default 64). *)

val add : t -> int -> unit
(** Add a board (idempotent). *)

val remove : t -> int -> unit
val member : t -> int -> bool
val boards : t -> int list

val lookup : t -> string -> int option
(** Owning board for a key; [None] when the ring is empty. *)

val hash_key : string -> int

(** Round-robin over the live board set (stateless replicas). *)
module Rr : sig
  type t

  val create : int list -> t
  val add : t -> int -> unit
  val remove : t -> int -> unit
  val live : t -> int list
  val next : t -> int option
end
