module Sim = Apiary_engine.Sim
module Message = Apiary_core.Message
module Shell = Apiary_core.Shell
module Span = Apiary_obs.Span

type stats = {
  mutable rx_frames : int;
  mutable tx_frames : int;
  mutable bad_frames : int;
  mutable unavailable : int;
  mutable outbound : int;
}

let op_remote = 0x4E52 (* "NR" *)

(* Outbound call payload: u48 dst_mac + encoded Netproto.request (whose
   req_id is assigned by the net service). *)
let encode_remote ~dst_mac (req : Netproto.request) =
  let body = Netproto.encode_request req in
  let out = Bytes.create (6 + Bytes.length body) in
  for i = 0 to 5 do
    Bytes.set out i (Char.chr ((dst_mac lsr ((5 - i) * 8)) land 0xFF))
  done;
  Bytes.blit body 0 out 6 (Bytes.length body);
  out

let decode_remote b =
  if Bytes.length b < 6 then Error "netsvc: short outbound call"
  else begin
    let mac = ref 0 in
    for i = 0 to 5 do
      mac := (!mac lsl 8) lor Char.code (Bytes.get b i)
    done;
    match Netproto.decode_request ~off:6 b with
    | Ok req -> Ok (!mac, req)
    | Error e -> Error e
  end

let remote_request sh net_conn ~dst_mac ~service ~op body k =
  let payload =
    encode_remote ~dst_mac { Netproto.req_id = 0; service; op; body }
  in
  Shell.request sh net_conn ~opcode:op_remote payload (fun r ->
      match r with
      | Error e -> k (Error e)
      | Ok m ->
        (match Netproto.decode_response m.Message.payload with
        | Ok rsp -> k (Ok rsp)
        | Error e -> k (Error (Shell.Denied e))))

(* Lazily-established, cached connections to target services. While a
   connect is in flight, requests queue behind it. *)
type conn_state =
  | Connecting of (Shell.conn option -> unit) list
  | Ready of Shell.conn

let behavior ~mac ~my_mac () =
  let st =
    { rx_frames = 0; tx_frames = 0; bad_frames = 0; unavailable = 0; outbound = 0 }
  in
  let conns : (string, conn_state) Hashtbl.t = Hashtbl.create 16 in
  (* Outstanding outbound calls: network req_id -> the message to respond
     to plus the open "remote" span covering the off-board round trip. *)
  let outbound : (int, Message.t * Span.id) Hashtbl.t = Hashtbl.create 16 in
  let next_req_id = ref 0 in
  let with_conn sh service k =
    match Hashtbl.find_opt conns service with
    | Some (Ready c) -> k (Some c)
    | Some (Connecting waiters) ->
      Hashtbl.replace conns service (Connecting (k :: waiters))
    | None ->
      Hashtbl.replace conns service (Connecting [ k ]);
      Shell.connect sh ~service (fun r ->
          let waiters =
            match Hashtbl.find_opt conns service with
            | Some (Connecting ws) -> ws
            | _ -> []
          in
          match r with
          | Ok c ->
            Hashtbl.replace conns service (Ready c);
            List.iter (fun w -> w (Some c)) (List.rev waiters)
          | Error _ ->
            Hashtbl.remove conns service;
            List.iter (fun w -> w None) (List.rev waiters))
  in
  let send_frame sh dst payload =
    let frame = Frame.make ~dst ~src:my_mac payload in
    if Mac.send mac frame then begin
      st.tx_frames <- st.tx_frames + 1;
      if Span.on () then
        Span.instant ~board:(Shell.obs_board sh) ~cat:"net" ~name:"frame.tx"
          ~args:[ ("dst", Printf.sprintf "%012x" dst) ]
          ~track:(Shell.tile sh) ~ts:(Shell.now sh) ()
    end
  in
  let reply_frame sh (req : Netproto.request) dst status body =
    let rsp = { Netproto.rsp_id = req.Netproto.req_id; status; body } in
    send_frame sh dst (Netproto.encode_response rsp)
  in
  (* Inbound request from the network: bridge onto the NoC. *)
  let handle_inbound_request sh (f : Frame.t) (req : Netproto.request) =
    (* "serve" span: frame receipt to reply-frame transmission. The
       [req_id] arg is the cross-board link back to the caller's
       "remote" span — the board-local corr changes at the wire. *)
    let sid =
      if not (Span.on ()) then Span.null
      else
        Span.start ~board:(Shell.obs_board sh)
          ~args:
            [
              ("req_id", string_of_int req.Netproto.req_id);
              ("service", req.Netproto.service);
            ]
          ~cat:"net" ~name:"serve" ~track:(Shell.tile sh) ~ts:(Shell.now sh)
          ()
    in
    let reply status body =
      (* A null id (capture off) closes nothing: build no arguments. *)
      if sid != Span.null then
        Span.finish ~args:[ ("status", Netproto.status_to_string status) ]
          ~ts:(Shell.now sh) sid;
      reply_frame sh req f.Frame.src status body
    in
    with_conn sh req.Netproto.service (fun conn ->
        match conn with
        | None ->
          st.unavailable <- st.unavailable + 1;
          reply Netproto.Service_unavailable Bytes.empty
        | Some conn ->
          Shell.request sh conn ~opcode:req.Netproto.op req.Netproto.body (fun r ->
              match r with
              | Ok m -> reply Netproto.Ok_resp m.Message.payload
              | Error (Shell.Nacked _) | Error (Shell.Denied _) ->
                (* Peer fail-stopped: drop the stale connection so the
                   next request re-resolves (it may have been restarted
                   elsewhere). *)
                Hashtbl.remove conns req.Netproto.service;
                st.unavailable <- st.unavailable + 1;
                reply Netproto.Service_unavailable Bytes.empty
              | Error Shell.Timeout -> reply Netproto.Remote_error Bytes.empty))
  in
  (* Response from the network for an accelerator's outbound call. *)
  let handle_inbound_response sh (rsp : Netproto.response) =
    match Hashtbl.find_opt outbound rsp.Netproto.rsp_id with
    | None -> st.bad_frames <- st.bad_frames + 1
    | Some (origin, sid) ->
      Hashtbl.remove outbound rsp.Netproto.rsp_id;
      if sid != Span.null then
        Span.finish
          ~args:[ ("status", Netproto.status_to_string rsp.Netproto.status) ]
          ~ts:(Shell.now sh) sid;
      Shell.respond sh origin ~opcode:op_remote (Netproto.encode_response rsp)
  in
  let handle_frame sh (f : Frame.t) =
    (* NIC-level dst filter: switch floods (unknown-dst frames) reach
       every port, and in a multi-board rack another board's request
       must not be answered here — a board without the service would
       race a bogus Service_unavailable past the real replica. *)
    if f.Frame.dst <> my_mac then ()
    else if f.Frame.ethertype <> Frame.ethertype_apiary then
      (* Another dialect on the wire (e.g. a flooded telemetry batch):
         not RPC traffic and not a malformed RPC either, so it is
         ignored without charging [bad_frames]. *)
      ()
    else begin
      st.rx_frames <- st.rx_frames + 1;
      if Span.on () then
        Span.instant ~board:(Shell.obs_board sh) ~cat:"net" ~name:"frame.rx"
          ~args:[ ("src", Printf.sprintf "%012x" f.Frame.src) ]
          ~track:(Shell.tile sh) ~ts:(Shell.now sh) ();
      match Netproto.decode_request f.Frame.payload with
      | Ok req -> handle_inbound_request sh f req
      | Error _ ->
        (match Netproto.decode_response f.Frame.payload with
        | Ok rsp -> handle_inbound_response sh rsp
        | Error _ -> st.bad_frames <- st.bad_frames + 1)
    end
  in
  (* Outbound call from an accelerator tile. *)
  let handle_outbound sh (msg : Message.t) =
    match decode_remote msg.Message.payload with
    | Error _ -> ()
    | Ok (dst_mac, req) ->
      st.outbound <- st.outbound + 1;
      incr next_req_id;
      let req_id = !next_req_id in
      (* "remote" span: the off-board leg of the caller's RPC, keyed by
         the caller's corr and carrying the wire req_id so the remote
         board's "serve" span links to it. *)
      let sid =
        if not (Span.on ()) then Span.null
        else
          Span.start ~board:(Shell.obs_board sh) ~corr:msg.Message.corr
            ~args:
              [
                ("req_id", string_of_int req_id);
                ("service", req.Netproto.service);
              ]
            ~cat:"net" ~name:"remote" ~track:(Shell.tile sh)
            ~ts:(Shell.now sh) ()
      in
      Hashtbl.replace outbound req_id (msg, sid);
      send_frame sh dst_mac
        (Netproto.encode_request { req with Netproto.req_id })
  in
  let b =
    Shell.behavior "os.net"
      ~on_boot:(fun sh ->
        Shell.register_service sh "net";
        Mac.set_rx mac (fun f -> handle_frame sh f))
      ~on_message:(fun sh msg ->
        match msg.Message.kind with
        | Message.Data { opcode } when opcode = op_remote -> handle_outbound sh msg
        | _ -> ())
  in
  (b, st)
