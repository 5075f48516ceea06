(** The Apiary shell — the portable, device-independent API an accelerator
    programs against (paper §1: "Each module is wrapped in an Apiary shell
    that interfaces to the fabric and manages capabilities on the module's
    behalf").

    This is the {e only} surface application code should touch. It is a
    restricted view of {!Monitor}: the same tile runtime, minus the
    kernel-side and privileged entry points. Everything is asynchronous
    and callback-based — hardware has no blocking calls. Callbacks run in
    simulation context; model compute time explicitly with {!busy}.

    A typical accelerator:
    {[
      let encoder = Shell.behavior "encoder"
        ~on_boot:(fun sh -> Shell.register_service sh "encode")
        ~on_message:(fun sh msg ->
          match msg.Message.kind with
          | Message.Data _ ->
            Shell.busy sh (cost_of msg);
            Shell.respond sh msg ~opcode:1 (encode msg.Message.payload)
          | _ -> ())
    ]} *)

type t = Monitor.t
(** The shell of one tile, handed to every behavior callback. (The
    equality with {!Monitor.t} is how the kernel hands the same tile
    runtime to both sides; application code should treat it as opaque.) *)

(** A capability-backed connection to a peer service. *)
type conn = Monitor.conn = {
  cap : Apiary_cap.Store.handle;
  peer : Message.addr;
  service : string;
}

(** A capability-backed memory segment. *)
type mem_handle = Monitor.mem_handle = {
  mcap : Apiary_cap.Store.handle;
  base : int;
  len : int;
}

type rpc_error = Monitor.rpc_error = Timeout | Nacked of string | Denied of string

val rpc_error_to_string : rpc_error -> string

(** How an accelerator is expressed: named event callbacks. *)
type behavior = Monitor.behavior = {
  bname : string;
  on_boot : t -> unit;
  on_message : t -> Message.t -> unit;
  on_tick : (t -> unit) option;
}

val behavior :
  ?on_tick:(t -> unit) -> ?on_boot:(t -> unit) ->
  ?on_message:(t -> Message.t -> unit) -> string -> behavior
(** Convenience constructor. *)

(** {1 Identity} *)

val tile : t -> int
val sim : t -> Apiary_engine.Sim.t
val now : t -> int

val obs_board : t -> int
(** Board id for [Apiary_obs.Span] events ([-1] when free-standing). *)

val self_addr : t -> Message.addr
val rng : t -> Apiary_engine.Rng.t
val log : t -> string -> unit

(** {1 Naming and connections} *)

val register_service : t -> string -> unit
val lookup : t -> string -> (Message.addr option -> unit) -> unit
val connect : t -> service:string -> ((conn, rpc_error) result -> unit) -> unit

(** {1 Messaging} *)

val send_data : t -> conn -> opcode:int -> ?cls:int -> bytes -> unit
(** One-way message over a connection. *)

val request :
  t -> conn -> opcode:int -> ?cls:int -> bytes ->
  ((Message.t, rpc_error) result -> unit) -> unit
(** RPC over a connection; the callback fires with the reply, a NACK
    (peer fail-stopped), a local denial, or a timeout. *)

val respond : t -> Message.t -> opcode:int -> ?cls:int -> bytes -> unit
(** Answer a received request (uses the one-shot reply window the monitor
    opened at delivery). *)

(** {1 Memory (capability segments, §4.6)} *)

val alloc : t -> bytes:int -> ((mem_handle, rpc_error) result -> unit) -> unit
val free : t -> mem_handle -> ((unit, rpc_error) result -> unit) -> unit

val read_mem :
  t -> mem_handle -> off:int -> len:int ->
  ((bytes, rpc_error) result -> unit) -> unit

val write_mem :
  t -> mem_handle -> off:int -> bytes ->
  ((unit, rpc_error) result -> unit) -> unit

val grant_mem :
  t -> mem_handle -> to_tile:int -> rights:Apiary_cap.Rights.t ->
  (Apiary_cap.Store.handle, Apiary_cap.Store.error) result

val mem_handle_of_grant : t -> Apiary_cap.Store.handle -> mem_handle option

(** {1 Execution model} *)

val busy : t -> int -> unit
(** Charge [n] cycles of compute: the shell delivers no further messages
    (and runs no [on_tick]) until they elapse. *)

type grant = Monitor.grant =
  | Accept
  | Accept_limited of { rate : float; burst : int }
  | Refuse
(** Connect-policy verdict; [Accept_limited] attaches a per-connection
    token bucket (flits/cycle) that the requester's monitor enforces. *)

val set_connect_policy : t -> (Message.addr -> bool) -> unit
val set_grant_policy : t -> (Message.addr -> grant) -> unit
val set_on_error : t -> (string -> unit) -> unit
val raise_fault : t -> string -> unit

(** {1 Misbehaviour (for isolation experiments)} *)

val send_raw : t -> dst:Message.addr -> opcode:int -> bytes -> unit
(** Send without any capability — the move a buggy or malicious
    accelerator makes. Denied (and counted) when enforcement is on. *)
