(** Partitioned capability store — the data structure each Apiary monitor
    owns on behalf of its tile (paper §4.3, §4.6).

    Accelerators never hold capabilities, only {e handles}: opaque integers
    that index into the monitor's table. A handle encodes both a slot and a
    generation number, so a stale handle kept across revocation and slot
    reuse is detected rather than silently aliasing a new capability.

    Capabilities target either a {b memory segment} (Dennis–van-Horn style
    base/length with rights) or a {b communication endpoint} (a tile and
    endpoint id the holder may send to). Derivation only attenuates:
    a child's rights must be a subset of its parent's, and a child segment
    must lie within its parent segment. Revocation cascades to descendants,
    including those granted into other tiles' stores. *)

type target =
  | Segment of { base : int; len : int }
      (** Byte range in the global physical address space. *)
  | Endpoint of { tile : int; endpoint : int }
      (** Destination the holder may address messages to. [tile] is a
          linearized tile index. *)

type handle = int
(** Opaque capability reference held by untrusted accelerator logic. *)

type error =
  | Invalid_handle  (** Never existed, wrong generation, or out of range. *)
  | Revoked
  | Rights_exceeded  (** Requested authority exceeds the capability's. *)
  | Not_grantable  (** Derivation/transfer without the grant right. *)
  | Bounds  (** Memory access or sub-segment outside the segment. *)
  | Wrong_type  (** Endpoint operation on a segment cap or vice versa. *)

val error_to_string : error -> string

type t
(** One tile's capability table. *)

val create : ?capacity:int -> tile:int -> unit -> t
(** [capacity] bounds the number of live capabilities (models the fixed
    BRAM budget of the hardware table; default 256). *)

val tile : t -> int
val live : t -> int
(** Number of live capabilities. *)

val capacity : t -> int

val mint : t -> target -> Rights.t -> (handle, error) result
(** Create a root capability. Only trusted OS services call this.
    Fails with [Invalid_handle] when the table is full. *)

val derive :
  t -> parent:handle -> rights:Rights.t -> ?sub:int * int -> unit ->
  (handle, error) result
(** Attenuate: child rights must be a subset of the parent's and the
    parent must carry [grant]. For segment caps, [?sub:(offset, len)]
    narrows the range relative to the parent's base. *)

val grant :
  src:t -> dst:t -> parent:handle -> rights:Rights.t -> (handle, error) result
(** Hand an attenuated child of [src]'s capability [parent] to tile
    [dst]; the child lives in [dst]'s table but remains linked to the
    parent for cascading revocation. *)

val revoke : t -> handle -> (int, error) result
(** Revoke a capability and, transitively, every capability derived from
    it (in any store). Returns the number of capabilities revoked. *)

val revoke_all : t -> int
(** Revoke every live capability in this store, cascading into derived
    capabilities held by other stores. Used when a tile fail-stops or is
    reconfigured. Returns the number revoked. *)

val inspect : t -> handle -> (target * Rights.t, error) result
(** Read back a capability's target and rights (monitor-side use). *)

val check_send : t -> handle -> tile:int -> endpoint:int -> (unit, error) result
(** Validate that [handle] authorizes sending to ([tile],[endpoint]). *)

val check_mem :
  t -> handle -> addr:int -> len:int -> write:bool -> (unit, error) result
(** Validate a memory access of [len] bytes at absolute address [addr]. *)
