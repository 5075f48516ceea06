type addr = { tile : int; ep : int }

let control_ep = 0
let app_ep = 1

type control =
  | Register of { name : string }
  | Register_ok
  | Lookup of { name : string }
  | Lookup_reply of { name : string; result : addr option }
  | Connect_req
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
  | Mem_write_req of { addr : int }
  | Mem_read_ok
  | Mem_write_ok
  | Mem_denied of { reason : string }
  | Nack of { reason : string }

type kind = Data of { opcode : int } | Control of control

type t = {
  src : addr;
  dst : addr;
  kind : kind;
  corr : int;
  is_reply : bool;
  cls : int;
  payload : bytes;
  created_at : int;
}

let empty_payload = Bytes.create 0

let make ~src ~dst ~kind ?(corr = 0) ?(is_reply = false) ?(cls = 0)
    ?(payload = empty_payload) ~now () =
  { src; dst; kind; corr; is_reply; cls; payload; created_at = now }

(* src(4) + dst(4) + kind tag(2) + corr(4) + length(2) *)
let header_bytes = 16

let control_bytes = function
  | Register { name } | Lookup { name } -> 2 + String.length name
  | Lookup_reply { name; _ } -> 2 + String.length name + 4
  | Register_ok | Connect_req | Free_ok | Mem_write_ok -> 0
  | Connect_ok _ -> 12
  | Connect_denied { reason } | Alloc_denied { reason }
  | Mem_denied { reason } | Nack { reason } ->
    2 + String.length reason
  | Alloc_req _ -> 4
  | Alloc_ok _ -> 12
  | Free_req _ -> 8
  | Mem_read_req _ -> 12
  | Mem_write_req _ -> 8
  | Mem_read_ok -> 0

let size_bytes t =
  let k = match t.kind with Data _ -> 0 | Control c -> control_bytes c in
  header_bytes + k + Bytes.length t.payload
