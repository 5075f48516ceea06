(** Apiary's message format — the single API-level interface every tile
    speaks (paper §4.3).

    Destination naming is a message field rather than dedicated wires,
    which is what lets one physical interface (the NoC port) reach any
    service. Messages are either application [Data] (an opaque opcode +
    payload, meaningful only to the endpoints) or [Control] — the
    microkernel protocol spoken by monitors and OS services (naming,
    connections, memory, fail-stop NACKs). *)

type addr = { tile : int; ep : int }
(** [tile] is the linearized tile index; endpoint [0] is the tile's
    monitor (control), [1] the accelerator itself. *)

val control_ep : int
val app_ep : int

(** Microkernel protocol messages. *)
type control =
  | Register of { name : string }  (** Register a service name for src. *)
  | Register_ok
  | Lookup of { name : string }
  | Lookup_reply of { name : string; result : addr option }
  | Connect_req  (** Ask dst's monitor for a send capability to dst. *)
  | Connect_ok of {
      cap : Apiary_cap.Store.handle;
      rate_millis : int;
          (** Per-connection token rate in milli-flits/cycle, enforced by
              the sender's monitor; [0] = unlimited. *)
      burst : int;
    }
  | Connect_denied of { reason : string }
  | Alloc_req of { bytes : int }
  | Alloc_ok of { cap : Apiary_cap.Store.handle; base : int; bytes : int }
  | Alloc_denied of { reason : string }
  | Free_req of { base : int }
  | Free_ok
  | Mem_read_req of { addr : int; len : int }
      (** [addr] is absolute — computed and bounds-checked by the source
          monitor, which is the enforcement point. *)
  | Mem_write_req of { addr : int }  (** Data rides in the payload. *)
  | Mem_read_ok  (** Data rides in the payload. *)
  | Mem_write_ok
  | Mem_denied of { reason : string }
  | Nack of { reason : string }
      (** Returned by a draining (failed) tile's monitor so peers fail
          fast instead of timing out (paper §4.4). *)

type kind = Data of { opcode : int } | Control of control

type t = {
  src : addr;
  dst : addr;
  kind : kind;
  corr : int;  (** Correlation id pairing requests with replies. *)
  is_reply : bool;
      (** Distinguishes a response from a request that happens to reuse a
          peer's correlation id — correlation ids are per-sender. *)
  cls : int;  (** QoS class, maps to a NoC virtual channel. *)
  payload : bytes;
  created_at : int;  (** Cycle the message was handed to the shell. *)
}

val make :
  src:addr -> dst:addr -> kind:kind -> ?corr:int -> ?is_reply:bool -> ?cls:int ->
  ?payload:bytes -> now:int -> unit -> t

val header_bytes : int
(** Fixed wire overhead per message. *)

val size_bytes : t -> int
(** Total wire size: header + control fields + payload. Drives NoC flit
    accounting. *)
