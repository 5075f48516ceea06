module Shell := Apiary_core.Shell

(** A quantized matrix–vector (int8) inference accelerator — the ML
    serving workload the paper opens with (Microsoft's direct-attached
    FPGAs for DNN inference, its refs [14,17]).

    The weight matrix lives {e once} in DRAM: a loader tile uploads it
    through capability-checked writes, then grants a read-only,
    non-grantable view of the segment to each worker replica
    ({!Shell.grant_mem}) — the shared-memory composition §4.6's segments
    are designed for. Workers stream the weights into their local "SRAM"
    at boot (real DRAM read traffic) and then serve requests at a modelled
    64-MAC/cycle rate.

    Arithmetic is exact int8×int8→int32 with a >>7 requantization, so
    clients can verify every inference bit-for-bit against {!reference}. *)

(** Request/response codec. *)
module Proto : sig
  val opcode : int

  val encode_req : bytes -> bytes
  (** Activations: one signed byte per input dimension. *)

  val decode_resp : bytes -> (bytes, string) result
  (** Output: one signed byte per output dimension, or a remote error. *)
end

val reference : weights:bytes -> rows:int -> cols:int -> bytes -> bytes
(** Ground-truth int8 matvec: out[r] = clamp((Σ_c W[r,c]·x[c]) >> 7). *)

val random_weights : Apiary_engine.Rng.t -> rows:int -> cols:int -> bytes

type stats = {
  mutable inferences : int;
  mutable weight_bytes_loaded : int;  (** DRAM traffic at worker boot *)
  mutable rejected : int;  (** malformed / wrong-dimension requests *)
}

val loader : weights:bytes -> rows:int -> cols:int -> worker_tiles:int list ->
  unit -> Shell.behavior
(** Uploads the weights to DRAM and grants each worker tile a read-only
    view, then messages the [i]th worker, service ["mvm<i>"], the grant
    handle. *)

val worker : ?service:string -> rows:int -> cols:int -> unit ->
  Shell.behavior * stats
(** Registers [service] (default ["mvm0"]-style names are the caller's
    choice), waits for the loader's grant, streams the weights in, then
    serves [Proto] requests. Requests arriving before the weights are
    ready get an error response. *)
