module Shell := Apiary_core.Shell

(** Library of reusable accelerator behaviors.

    Each is a {!Shell.behavior} that registers a service name at boot and
    speaks request/response over data messages. Compute time is modelled
    with [Shell.busy]: the video encoder, the compressor and a pipeline
    stage each stream one byte per cycle, pipelined streaming hardware's
    class, and charge [16 * (n / 16 + 1)] cycles for [n] payload bytes.
    No caller varies that rate. *)

(** Opcodes spoken by the library (replies echo the request opcode). *)
val op_echo : int
val op_encode : int
val op_compress : int
val op_stream : int

val echo : ?service:string -> ?cost:int -> unit -> Shell.behavior
(** Replies with the request payload after [cost] cycles (default 0). *)

val sink : ?service:string -> unit -> Shell.behavior * (unit -> int)
(** Accepts one-way data, counts it; returns the counter reader. *)

val video_encoder : ?service:string -> ?q:int -> ?width:int -> unit -> Shell.behavior
(** Intra-frame encoder over {!Codec.video_encode} (default [q = 2],
    [width = 64]): a 1 byte/cycle systolic transform. *)

val compressor : ?service:string -> ?algo:[ `Rle | `Lz ] -> unit -> Shell.behavior
(** The "third-party compression accelerator" of paper §2 (default
    [`Lz]). *)

val transform_stage :
  service:string -> next:string -> f:(bytes -> bytes) -> unit -> Shell.behavior
(** A pipeline stage: applies [f], forwards to service [next], and relays
    the downstream response to the original requester — the video
    processing pipeline composition of paper §2. *)

val load_balancer : service:string -> backends:string list -> unit -> Shell.behavior
(** Round-robin request spreader over replicated backends (paper §4.1:
    "a replicated accelerator with internal load balancing"). Connects to
    every backend at boot and relays request/response pairs. *)
