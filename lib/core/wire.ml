(* Layout (big-endian):
   u16 src.tile  u8 src.ep  u16 dst.tile  u8 dst.ep
   u8 tag  u8 cls  u32 corr  u32 created_at
   <tag-specific fields>  u32 payload_len  payload *)

module M = Message

let tag_of_kind = function
  | M.Data _ -> 0
  | M.Control c ->
    (match c with
    | M.Register _ -> 1
    | M.Register_ok -> 2
    | M.Lookup _ -> 3
    | M.Lookup_reply _ -> 4
    | M.Connect_req -> 5
    | M.Connect_ok _ -> 6
    | M.Connect_denied _ -> 7
    | M.Alloc_req _ -> 8
    | M.Alloc_ok _ -> 9
    | M.Alloc_denied _ -> 10
    | M.Free_req _ -> 11
    | M.Free_ok -> 12
    | M.Mem_read_req _ -> 13
    | M.Mem_write_req _ -> 14
    | M.Mem_read_ok -> 15
    | M.Mem_write_ok -> 16
    | M.Mem_denied _ -> 17
    (* 18 and 19 are unassigned. *)
    | M.Nack _ -> 20)

(* Growable output buffer. *)
module Out = struct
  let u8 b v = Buffer.add_uint8 b (v land 0xFF)
  let u16 b v = Buffer.add_uint16_be b (v land 0xFFFF)

  let u32 b v =
    u16 b (v lsr 16);
    u16 b v

  let str b s =
    u16 b (String.length s);
    Buffer.add_string b s
end

module In = struct
  type t = { data : bytes; mutable pos : int }

  exception Truncated

  let need t n = if t.pos + n > Bytes.length t.data then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let hi = u8 t in
    (hi lsl 8) lor u8 t

  let u32 t =
    let hi = u16 t in
    (hi lsl 16) lor u16 t

  let str t =
    let n = u16 t in
    need t n;
    let s = Bytes.sub_string t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let bytes_ t =
    let n = u32 t in
    need t n;
    let s = Bytes.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s
end

let encode_fields b = function
  | M.Data { opcode } -> Out.u32 b opcode
  | M.Control c ->
    (match c with
    | M.Register { name } | M.Lookup { name } -> Out.str b name
    | M.Lookup_reply { name; result } ->
      Out.str b name;
      (match result with
      | None -> Out.u8 b 0
      | Some a ->
        Out.u8 b 1;
        Out.u16 b a.M.tile;
        Out.u8 b a.M.ep)
    | M.Register_ok | M.Connect_req | M.Free_ok | M.Mem_read_ok
    | M.Mem_write_ok ->
      ()
    | M.Connect_ok { cap; rate_millis; burst } ->
      Out.u32 b cap;
      Out.u32 b rate_millis;
      Out.u32 b burst
    | M.Connect_denied { reason } | M.Alloc_denied { reason }
    | M.Mem_denied { reason } | M.Nack { reason } ->
      Out.str b reason
    | M.Alloc_req { bytes } -> Out.u32 b bytes
    | M.Alloc_ok { cap; base; bytes } ->
      Out.u32 b cap;
      Out.u32 b base;
      Out.u32 b bytes
    | M.Free_req { base } -> Out.u32 b base
    | M.Mem_read_req { addr; len } ->
      Out.u32 b addr;
      Out.u32 b len
    | M.Mem_write_req { addr } -> Out.u32 b addr)

let encode (m : M.t) =
  let b = Buffer.create (M.size_bytes m + 8) in
  Out.u16 b m.src.M.tile;
  Out.u8 b m.src.M.ep;
  Out.u16 b m.dst.M.tile;
  Out.u8 b m.dst.M.ep;
  Out.u8 b (tag_of_kind m.kind);
  Out.u8 b ((m.cls lsl 1) lor if m.is_reply then 1 else 0);
  Out.u32 b m.corr;
  Out.u32 b m.created_at;
  encode_fields b m.kind;
  Out.u32 b (Bytes.length m.payload);
  Buffer.add_bytes b m.payload;
  Buffer.to_bytes b

let encoded_size m = Bytes.length (encode m)

let decode_kind t tag =
  let open In in
  match tag with
  | 0 -> Ok (M.Data { opcode = u32 t })
  | 1 -> Ok (M.Control (M.Register { name = str t }))
  | 2 -> Ok (M.Control M.Register_ok)
  | 3 -> Ok (M.Control (M.Lookup { name = str t }))
  | 4 ->
    let name = str t in
    let result =
      match u8 t with
      | 0 -> None
      | _ ->
        let tile = u16 t in
        let ep = u8 t in
        Some { M.tile; ep }
    in
    Ok (M.Control (M.Lookup_reply { name; result }))
  | 5 -> Ok (M.Control M.Connect_req)
  | 6 ->
    let cap = u32 t in
    let rate_millis = u32 t in
    let burst = u32 t in
    Ok (M.Control (M.Connect_ok { cap; rate_millis; burst }))
  | 7 -> Ok (M.Control (M.Connect_denied { reason = str t }))
  | 8 -> Ok (M.Control (M.Alloc_req { bytes = u32 t }))
  | 9 ->
    let cap = u32 t in
    let base = u32 t in
    let bytes = u32 t in
    Ok (M.Control (M.Alloc_ok { cap; base; bytes }))
  | 10 -> Ok (M.Control (M.Alloc_denied { reason = str t }))
  | 11 -> Ok (M.Control (M.Free_req { base = u32 t }))
  | 12 -> Ok (M.Control M.Free_ok)
  | 13 ->
    let addr = u32 t in
    let len = u32 t in
    Ok (M.Control (M.Mem_read_req { addr; len }))
  | 14 -> Ok (M.Control (M.Mem_write_req { addr = u32 t }))
  | 15 -> Ok (M.Control M.Mem_read_ok)
  | 16 -> Ok (M.Control M.Mem_write_ok)
  | 17 -> Ok (M.Control (M.Mem_denied { reason = str t }))
  | 20 -> Ok (M.Control (M.Nack { reason = str t }))
  | n -> Error (Printf.sprintf "unknown message tag %d" n)

let decode data =
  let t = { In.data; pos = 0 } in
  try
    let open In in
    let src_tile = u16 t in
    let src_ep = u8 t in
    let dst_tile = u16 t in
    let dst_ep = u8 t in
    let tag = u8 t in
    let flags = u8 t in
    let cls = flags lsr 1 in
    let is_reply = flags land 1 = 1 in
    let corr = u32 t in
    let created_at = u32 t in
    match decode_kind t tag with
    | Error e -> Error e
    | Ok kind ->
      let payload = bytes_ t in
      if t.pos <> Bytes.length data then Error "trailing bytes"
      else
        Ok
          {
            M.src = { M.tile = src_tile; ep = src_ep };
            dst = { M.tile = dst_tile; ep = dst_ep };
            kind;
            corr;
            is_reply;
            cls;
            payload;
            created_at;
          }
  with In.Truncated -> Error "truncated message"
