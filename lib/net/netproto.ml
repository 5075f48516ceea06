type request = { req_id : int; service : string; op : int; body : bytes }
type status = Ok_resp | Service_unavailable | Remote_error
type response = { rsp_id : int; status : status; body : bytes }

let status_to_string = function
  | Ok_resp -> "ok"
  | Service_unavailable -> "unavailable"
  | Remote_error -> "remote-error"

(* Request: 'Q' u32 req_id u32 op u8 svc_len svc body
   Response: 'R' u32 rsp_id u8 status body *)

let encode_request (r : request) =
  let out = Buffer.create (Bytes.length r.body + 16) in
  Buffer.add_char out 'Q';
  Buffer.add_uint16_be out (r.req_id lsr 16);
  Buffer.add_uint16_be out (r.req_id land 0xFFFF);
  Buffer.add_uint16_be out (r.op lsr 16);
  Buffer.add_uint16_be out (r.op land 0xFFFF);
  Buffer.add_uint8 out (String.length r.service);
  Buffer.add_string out r.service;
  Buffer.add_bytes out r.body;
  Buffer.to_bytes out

(* [off] parses an envelope embedded at an offset (e.g. after netsvc's
   fabric framing) without the caller copying it out first. *)
let decode_request ?(off = 0) b =
  let n = Bytes.length b - off in
  if n < 10 || Bytes.get b off <> 'Q' then Error "netproto: not a request"
  else begin
    let req_id =
      (Bytes.get_uint16_be b (off + 1) lsl 16) lor Bytes.get_uint16_be b (off + 3)
    in
    let op =
      (Bytes.get_uint16_be b (off + 5) lsl 16) lor Bytes.get_uint16_be b (off + 7)
    in
    let slen = Char.code (Bytes.get b (off + 9)) in
    if 10 + slen > n then Error "netproto: truncated service name"
    else
      Ok
        {
          req_id;
          service = Bytes.sub_string b (off + 10) slen;
          op;
          body = Bytes.sub b (off + 10 + slen) (n - 10 - slen);
        }
  end

let status_to_int = function Ok_resp -> 0 | Service_unavailable -> 1 | Remote_error -> 2

let status_of_int = function
  | 0 -> Some Ok_resp
  | 1 -> Some Service_unavailable
  | 2 -> Some Remote_error
  | _ -> None

let encode_response (r : response) =
  let out = Buffer.create (Bytes.length r.body + 8) in
  Buffer.add_char out 'R';
  Buffer.add_uint16_be out (r.rsp_id lsr 16);
  Buffer.add_uint16_be out (r.rsp_id land 0xFFFF);
  Buffer.add_uint8 out (status_to_int r.status);
  Buffer.add_bytes out r.body;
  Buffer.to_bytes out

let decode_response ?(off = 0) b =
  let n = Bytes.length b - off in
  if n < 6 || Bytes.get b off <> 'R' then Error "netproto: not a response"
  else
    let rsp_id =
      (Bytes.get_uint16_be b (off + 1) lsl 16) lor Bytes.get_uint16_be b (off + 3)
    in
    match status_of_int (Char.code (Bytes.get b (off + 5))) with
    | None -> Error "netproto: bad status"
    | Some status -> Ok { rsp_id; status; body = Bytes.sub b (off + 6) (n - 6) }
