(** RPC envelope carried in Apiary ethertype frames — the reliable
    request/response transport between datacenter clients and
    direct-attached FPGA services.

    Requests name the target service (API-level naming extends all the
    way to the network); responses echo the request id. *)

type request = {
  req_id : int;
  service : string;
  op : int;  (** Apiary data opcode forwarded to the service. *)
  body : bytes;
}

type status = Ok_resp | Service_unavailable | Remote_error

type response = { rsp_id : int; status : status; body : bytes }

val status_to_string : status -> string

val encode_request : request -> bytes

val decode_request : ?off:int -> bytes -> (request, string) result
(** [off] (default 0) parses an envelope embedded at that offset,
    saving the caller a [Bytes.sub]. *)

val encode_response : response -> bytes
val decode_response : ?off:int -> bytes -> (response, string) result
