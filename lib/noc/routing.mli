(** Deterministic dimension-order routing.

    Both orders are deadlock-free on a mesh for single-packet dependencies
    (Dally & Seitz); message-dependent deadlock is avoided at the protocol
    layer by sinking packets into unbounded NIC receive queues (the
    "consumption assumption" — see paper refs [30,32]). *)

type t =
  | Xy  (** Route X first, then Y. *)
  | Yx  (** Route Y first, then X. *)

val next_port : t -> at:Coord.t -> dst:Coord.t -> Port.t
(** Output port a packet at router [at] headed for [dst] must take;
    [Local] when [at = dst]. *)

val next_index : t -> x:int -> y:int -> dx:int -> dy:int -> int
(** {!next_port} on plain coordinates, as a {!Port.index}: router
    [(x, y)], destination [(dx, dy)]. *)
