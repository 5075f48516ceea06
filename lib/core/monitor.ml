module Sim = Apiary_engine.Sim
module Fifo = Apiary_engine.Fifo
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Span = Apiary_obs.Span
module Perf = Apiary_obs.Perf
module Flight = Apiary_obs.Flight
module Store = Apiary_cap.Store
module Rights = Apiary_cap.Rights

type config = {
  enforce : bool;
  check_latency : int;
  rate : float;
  burst : int;
  egress_classes : int;
}

let default_config =
  {
    enforce = true;
    check_latency = 2;
    rate = 4.0;
    burst = 512;
    egress_classes = 1;
  }

(* Egress queue depth per class, in messages, capability table slots
   per tile, and the cycles a pending RPC waits before it times out. *)
let egress_capacity = 64
let cap_capacity = 256
let rpc_timeout = 50_000

(* The monitor's tables are keyed by ints: one inline compare per probe,
   no call to the runtime's polymorphic compare. The hash is the generic
   one, so a table iterates in the same order as a generic [Hashtbl]. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* A reply window's key: the requester's tile and correlation id in one
   int. A delivered request comes from a tile on this board with a fresh
   positive corr, so every window has a key. A reply names its pair
   itself, and an untrusted accelerator may forge it: a pair outside
   those ranges has no key ([-1]), so it cannot alias another window. *)
let tile_bits = 16

let reply_key tile corr =
  if tile lsr tile_bits = 0 && corr > 0 && corr lsr (62 - tile_bits) = 0 then
    (corr lsl tile_bits) lor tile
  else -1

(* The connection bucket of a send that has none: it always admits and
   is never written, so one serves every monitor. *)
let no_bucket = Rate_limiter.unlimited ()

type state = Running | Draining of string | Offline

let state_to_string = function
  | Running -> "running"
  | Draining r -> Printf.sprintf "draining(%s)" r
  | Offline -> "offline"

type rpc_error = Timeout | Nacked of string | Denied of string

let rpc_error_to_string = function
  | Timeout -> "timeout"
  | Nacked r -> Printf.sprintf "nacked: %s" r
  | Denied r -> Printf.sprintf "denied: %s" r

type reply_cb = (Message.t, rpc_error) result -> unit

type conn = { cap : Store.handle; peer : Message.addr; service : string }
type mem_handle = { mcap : Store.handle; base : int; len : int }

(* What a tile's connect policy may answer: accept, accept with a
   per-connection rate limit (enforced by the requester's own monitor —
   monitors are mutually trusted hardware), or refuse. *)
type grant = Accept | Accept_limited of { rate : float; burst : int } | Refuse

(* Egress entries remember which authority the send claims, so the check
   stage knows what to verify. *)
type egress_entry =
  | E_control of Message.t  (* monitor-generated protocol traffic *)
  | E_conn of Message.t * Store.handle  (* data over a connection *)
  | E_reply of Message.t  (* response to a delivered request *)
  | E_mem of Message.t * Store.handle  (* memory operation *)
  | E_raw of Message.t  (* uncapabilitied attempt *)

let entry_msg = function
  | E_control m | E_conn (m, _) | E_reply m | E_mem (m, _) | E_raw m -> m

type behavior = {
  bname : string;
  on_boot : t -> unit;
  on_message : t -> Message.t -> unit;
  on_tick : (t -> unit) option;
}

and fabric = {
  f_inject : Message.t -> unit;
  f_flits : Message.t -> int;
  f_store_of : int -> Store.t;
  f_monitor_of : int -> t;
  f_name_addr : Message.addr;
  f_mem_addr : Message.addr;
  f_on_fault : int -> string -> unit;
}

and t = {
  m_sim : Sim.t;
  m_tile : int;
  cfg : config;
  fabric : fabric;
  privileged : bool;
  m_rng : Rng.t;
  self : Message.addr;  (* the accelerator's endpoint *)
  ctl : Message.addr;  (* the monitor's own endpoint *)
  mutable m_store : Store.t;
  mutable m_state : state;
  egress : egress_entry Fifo.t array;  (* one queue per class *)
  bucket : Rate_limiter.t;
  mutable next_corr : int;
  pending : (int * reply_cb) Itbl.t;  (* corr -> (peer tile, cb) *)
  rx : Message.t Queue.t;
  mutable behavior : behavior;
  mutable busy_until : int;
  mutable connect_policy : Message.addr -> grant;
  conn_buckets : Rate_limiter.t Itbl.t;  (* per-connection limits by cap *)
  mutable on_error : string -> unit;
  reply_ok : int Itbl.t;  (* reply_key peer corr -> open windows *)
  mutable granted : (Store.t * Store.handle) list;
  perf : Perf.t;  (* the tile's hardware counter block *)
  flight : Flight.t;  (* board flight recorder (shared, owned by kernel) *)
  lat_added : Stats.Histogram.t;
  mutable last_progress : int;
      (* last cycle this monitor moved a message (egress admit or rx
         delivery) — what the health layer's heartbeat deadline watches *)
  mutable m_handle : Sim.handle;
      (* our ticker in the activity-set scheduler, re-armed on ingress,
         egress visibility and reset *)
}

let idle_behavior =
  {
    bname = "idle";
    on_boot = (fun _ -> ());
    on_message = (fun _ _ -> ());
    on_tick = None;
  }

let tile t = t.m_tile
let sim t = t.m_sim
let state t = t.m_state
let store t = t.m_store
let behavior_name t = t.behavior.bname
let self_addr t = t.self
let rng t = t.m_rng
let now t = Sim.now t.m_sim

(* Board id for Span events: the flight ring's board stamp (set through
   Kernel.set_obs_board for rack members), or -1 for a free-standing
   board. *)
let obs_board t = Flight.board t.flight

(* The monitor's one recorder: every admit, deny, drop, fault and note
   is a single event, captured by the span recorder when tracing is on
   and by the board flight ring when it is armed. [corr] 0 and [args]
   [] are the recorders' defaults; with both sinks off a mark builds
   nothing. *)
let obs_mark t ~corr ~args name =
  if Span.on () then
    Span.instant ~board:(obs_board t) ~corr ~args ~cat:"monitor" ~name
      ~track:t.m_tile ~ts:(now t) ();
  if Flight.enabled t.flight then
    Flight.record t.flight ~ts:(now t) ~tile:t.m_tile ~cat:"monitor" ~name ~corr
      ~args ()

let log t s = obs_mark t ~corr:0 ~args:[ ("msg", s) ] "note"

(* ------------------------------------------------------------------ *)
(* Egress *)

let fail_pending t corr err =
  match Itbl.find_opt t.pending corr with
  | None -> ()
  | Some (_, cb) ->
    Itbl.remove t.pending corr;
    cb (Error err)

let egress_class t (m : Message.t) =
  let n = Array.length t.egress in
  if m.Message.cls >= n then n - 1 else if m.Message.cls < 0 then 0 else m.Message.cls

let enqueue t entry =
  let m = entry_msg entry in
  (* Every shell call that reaches the egress path is one monitor
     "syscall" — the in-band measure of how hard a tile works its
     monitor. *)
  Perf.incr t.perf Perf.syscalls;
  if not (Fifo.push t.egress.(egress_class t m) entry) then begin
    Perf.incr t.perf Perf.drops;
    obs_mark t ~corr:m.Message.corr
      ~args:[ ("reason", "egress queue full") ]
      "drop";
    if m.Message.corr > 0 && not m.Message.is_reply then
      fail_pending t m.Message.corr (Denied "egress queue full");
    t.on_error "egress queue full"
  end

(* Validate an egress entry against the tile's capability table. *)
let check t entry =
  if not t.cfg.enforce then Ok ()
  else
    match entry with
    | E_control _ -> Ok ()
    | E_conn (m, h) ->
      (match
         Store.check_send t.m_store h ~tile:m.Message.dst.Message.tile
           ~endpoint:m.Message.dst.Message.ep
       with
      | Ok () -> Ok ()
      | Error e -> Error (Printf.sprintf "send cap: %s" (Store.error_to_string e)))
    | E_reply m ->
      (* Verify only — the one-shot window is consumed at the commit
         point below, so a rate-stalled reply is not denied on retry. A
         window in the table has a count of at least 1. *)
      if Itbl.mem t.reply_ok (reply_key m.Message.dst.Message.tile m.Message.corr)
      then Ok ()
      else Error "no reply window"
    | E_mem (m, h) ->
      let dst = m.Message.dst and mem = t.fabric.f_mem_addr in
      if dst.Message.tile <> mem.Message.tile || dst.Message.ep <> mem.Message.ep then
        Error "mem op to non-memory tile"
      else
        let verdict =
          match m.Message.kind with
          | Message.Control (Message.Mem_read_req { addr; len }) ->
            Store.check_mem t.m_store h ~addr ~len ~write:false
          | Message.Control (Message.Mem_write_req { addr }) ->
            Store.check_mem t.m_store h ~addr
              ~len:(Bytes.length m.Message.payload)
              ~write:true
          | _ -> Error Store.Wrong_type
        in
        (match verdict with
        | Ok () -> Ok ()
        | Error e -> Error (Printf.sprintf "mem cap: %s" (Store.error_to_string e)))
    | E_raw _ -> Error "no capability for destination"

(* Highest class with a pending message wins the egress slot, so a
   tile's own bulk traffic cannot head-of-line block its priority
   replies (the per-class egress extension of E9). [-1] when every
   class is empty. *)
let rec pick_egress t c =
  if c < 0 || not (Fifo.is_empty t.egress.(c)) then c else pick_egress t (c - 1)

(* The bucket of the connection [entry] sends on, else [no_bucket]. *)
let conn_bucket t entry =
  match entry with
  | E_conn (_, h) when t.cfg.enforce && Itbl.length t.conn_buckets > 0 -> (
    match Itbl.find t.conn_buckets h with
    | b -> b
    | exception Not_found -> no_bucket)
  | E_conn _ | E_control _ | E_reply _ | E_mem _ | E_raw _ -> no_bucket

(* Consume the one-shot window an admitted reply answers. *)
let consume_window t (m : Message.t) =
  let key = reply_key m.Message.dst.Message.tile m.Message.corr in
  match Itbl.find t.reply_ok key with
  | 1 -> Itbl.remove t.reply_ok key
  | n -> Itbl.replace t.reply_ok key (n - 1)
  | exception Not_found -> ()

let process_egress t =
  let c = pick_egress t (Array.length t.egress - 1) in
  if c >= 0 then begin
    let q = t.egress.(c) in
    let entry = Fifo.top q in
    let m = entry_msg entry in
    match check t entry with
    | Error reason ->
      Fifo.drop q;
      Perf.incr t.perf Perf.denials;
      obs_mark t ~corr:m.Message.corr ~args:[ ("reason", reason) ] "deny";
      if m.Message.corr > 0 && not m.Message.is_reply then
        fail_pending t m.Message.corr (Denied reason);
      t.on_error reason
    | Ok () ->
      let cost = t.fabric.f_flits m in
      let conn = conn_bucket t entry in
      Rate_limiter.advance t.bucket ~now:(now t);
      Rate_limiter.advance conn ~now:(now t);
      let tile_ok = (not t.cfg.enforce) || Rate_limiter.would_admit t.bucket cost in
      let conn_ok = Rate_limiter.would_admit conn cost in
      if not (tile_ok && conn_ok) then begin
        (* Head-of-line stall (within this class) until the dry bucket
           refills — the policing that protects the fabric and the peer. *)
        if not tile_ok then ignore (Rate_limiter.try_take t.bucket cost);
        if not conn_ok then ignore (Rate_limiter.try_take conn cost)
      end
      else begin
        if t.cfg.enforce then Rate_limiter.take t.bucket cost;
        Rate_limiter.take conn cost;
        (match entry with
        | E_reply m when t.cfg.enforce -> consume_window t m
        | E_reply _ | E_control _ | E_conn _ | E_mem _ | E_raw _ -> ());
        Fifo.drop q;
        Perf.incr t.perf Perf.msgs_out;
        t.last_progress <- now t;
        obs_mark t ~corr:m.Message.corr ~args:[] "admit";
        Stats.Histogram.record t.lat_added
          (now t - m.Message.created_at + t.cfg.check_latency);
        if t.cfg.check_latency = 0 then t.fabric.f_inject m
        else Sim.after t.m_sim t.cfg.check_latency (fun () -> t.fabric.f_inject m)
      end
  end

(* ------------------------------------------------------------------ *)
(* RPC plumbing *)

let fresh_corr t =
  t.next_corr <- t.next_corr + 1;
  t.next_corr

let add_pending t corr peer cb =
  (* Every outstanding RPC flows through here; with spans on, the reply
     callback closes a corr-keyed "rpc" span so the whole call (local or
     cross-board) has one parent interval on the caller's track. *)
  let cb =
    if not (Span.on ()) then cb
    else begin
      let sid =
        Span.start ~board:(obs_board t) ~corr
          ~args:[ ("peer", string_of_int peer) ]
          ~cat:"monitor" ~name:"rpc" ~track:t.m_tile ~ts:(now t) ()
      in
      fun r ->
        let status =
          match r with
          | Ok _ -> "ok"
          | Error Timeout -> "timeout"
          | Error (Nacked _) -> "nacked"
          | Error (Denied _) -> "denied"
        in
        Span.finish ~args:[ ("status", status) ] ~ts:(now t) sid;
        cb r
    end
  in
  Itbl.replace t.pending corr (peer, cb);
  Sim.after t.m_sim rpc_timeout (fun () ->
      match Itbl.find_opt t.pending corr with
      | Some (_, cb) ->
        Itbl.remove t.pending corr;
        cb (Error Timeout)
      | None -> ())

let control_rpc t ~(dst : Message.addr) control cb =
  let corr = fresh_corr t in
  let msg =
    Message.make ~src:t.ctl ~dst ~kind:(Message.Control control) ~corr ~is_reply:false
      ~cls:0 ~payload:Bytes.empty ~now:(now t)
  in
  add_pending t corr dst.Message.tile cb;
  enqueue t (E_control msg)

(* A control-path reply to [req]. *)
let control_reply t (req : Message.t) payload control =
  enqueue t
    (E_control
       (Message.make ~src:t.ctl ~dst:req.Message.src ~kind:(Message.Control control)
          ~corr:req.Message.corr ~is_reply:true ~cls:0 ~payload ~now:(now t)))

(* ------------------------------------------------------------------ *)
(* Shell surface *)

let register_service t name =
  control_rpc t ~dst:t.fabric.f_name_addr (Message.Register { name }) (fun _ -> ())

let lookup t name cb =
  control_rpc t ~dst:t.fabric.f_name_addr (Message.Lookup { name }) (fun r ->
      match r with
      | Ok { Message.kind = Message.Control (Message.Lookup_reply { result; _ }); _ }
        ->
        cb result
      | Ok _ | Error _ -> cb None)

let connect t ~service cb =
  lookup t service (fun r ->
      match r with
      | None -> cb (Error (Denied (Printf.sprintf "no such service: %s" service)))
      | Some addr ->
        let ctl = { Message.tile = addr.Message.tile; ep = Message.control_ep } in
        control_rpc t ~dst:ctl Message.Connect_req (fun r ->
            match r with
            | Ok
                {
                  Message.kind =
                    Message.Control (Message.Connect_ok { cap; rate_millis; burst });
                  _;
                } ->
              (* The grantor may have attached a per-connection rate
                 limit; this monitor honours it on egress. *)
              if rate_millis > 0 then
                Itbl.replace t.conn_buckets cap
                  (Rate_limiter.create
                     ~rate:(float_of_int rate_millis /. 1000.0)
                     ~burst:(max 1 burst));
              cb
                (Ok
                   {
                     cap;
                     peer = { Message.tile = addr.Message.tile; ep = Message.app_ep };
                     service;
                   })
            | Ok
                {
                  Message.kind = Message.Control (Message.Connect_denied { reason });
                  _;
                } ->
              cb (Error (Denied reason))
            | Ok _ -> cb (Error (Denied "unexpected connect reply"))
            | Error e -> cb (Error e)))

let send_data t conn ~opcode ?(cls = 0) payload =
  let msg =
    Message.make ~src:t.self ~dst:conn.peer ~kind:(Message.Data { opcode }) ~corr:0
      ~is_reply:false ~cls ~payload ~now:(now t)
  in
  enqueue t (E_conn (msg, conn.cap))

let request t conn ~opcode ?(cls = 0) payload cb =
  let corr = fresh_corr t in
  let msg =
    Message.make ~src:t.self ~dst:conn.peer ~kind:(Message.Data { opcode }) ~corr
      ~is_reply:false ~cls ~payload ~now:(now t)
  in
  add_pending t corr conn.peer.Message.tile cb;
  enqueue t (E_conn (msg, conn.cap))

let respond t (req : Message.t) ~opcode ?(cls = 0) payload =
  let msg =
    Message.make ~src:t.self ~dst:req.Message.src ~kind:(Message.Data { opcode })
      ~corr:req.Message.corr ~is_reply:true ~cls ~payload ~now:(now t)
  in
  enqueue t (E_reply msg)

let alloc t ~bytes cb =
  control_rpc t ~dst:t.fabric.f_mem_addr (Message.Alloc_req { bytes }) (fun r ->
      match r with
      | Ok { Message.kind = Message.Control (Message.Alloc_ok { cap; base; bytes }); _ }
        ->
        cb (Ok { mcap = cap; base; len = bytes })
      | Ok { Message.kind = Message.Control (Message.Alloc_denied { reason }); _ } ->
        cb (Error (Denied reason))
      | Ok _ -> cb (Error (Denied "unexpected alloc reply"))
      | Error e -> cb (Error e))

let free t h cb =
  control_rpc t ~dst:t.fabric.f_mem_addr (Message.Free_req { base = h.base })
    (fun r ->
      match r with
      | Ok { Message.kind = Message.Control Message.Free_ok; _ } -> cb (Ok ())
      | Ok { Message.kind = Message.Control (Message.Mem_denied { reason }); _ } ->
        cb (Error (Denied reason))
      | Ok _ -> cb (Error (Denied "unexpected free reply"))
      | Error e -> cb (Error e))

let mem_rpc t control payload h cb =
  let corr = fresh_corr t in
  let msg =
    Message.make ~src:t.ctl ~dst:t.fabric.f_mem_addr ~kind:(Message.Control control)
      ~corr ~is_reply:false ~cls:0 ~payload ~now:(now t)
  in
  add_pending t corr t.fabric.f_mem_addr.Message.tile cb;
  enqueue t (E_mem (msg, h.mcap))

let read_mem t h ~off ~len cb =
  mem_rpc t (Message.Mem_read_req { addr = h.base + off; len }) Bytes.empty h
    (fun r ->
      match r with
      | Ok { Message.kind = Message.Control Message.Mem_read_ok; payload; _ } ->
        cb (Ok payload)
      | Ok { Message.kind = Message.Control (Message.Mem_denied { reason }); _ } ->
        cb (Error (Denied reason))
      | Ok _ -> cb (Error (Denied "unexpected mem reply"))
      | Error e -> cb (Error e))

let write_mem t h ~off data cb =
  mem_rpc t (Message.Mem_write_req { addr = h.base + off }) data h
    (fun r ->
      match r with
      | Ok { Message.kind = Message.Control Message.Mem_write_ok; _ } -> cb (Ok ())
      | Ok { Message.kind = Message.Control (Message.Mem_denied { reason }); _ } ->
        cb (Error (Denied reason))
      | Ok _ -> cb (Error (Denied "unexpected mem reply"))
      | Error e -> cb (Error e))

let grant_mem t h ~to_tile ~rights =
  let dst_store = t.fabric.f_store_of to_tile in
  match Store.grant ~src:t.m_store ~dst:dst_store ~parent:h.mcap ~rights with
  | Ok handle ->
    (* Remember the grant so a fault on this tile revokes it. *)
    t.granted <- (dst_store, handle) :: t.granted;
    Ok handle
  | Error e -> Error e

let mem_handle_of_grant t h =
  match Store.inspect t.m_store h with
  | Ok (Store.Segment { base; len }, _) -> Some { mcap = h; base; len }
  | Ok (Store.Endpoint _, _) | Error _ -> None

let busy t n =
  assert (n >= 0);
  t.busy_until <- max (now t) t.busy_until + n

let set_connect_policy t p =
  t.connect_policy <- (fun src -> if p src then Accept else Refuse)

let set_grant_policy t p = t.connect_policy <- p
let set_on_error t f = t.on_error <- f

let send_raw t ~dst ~opcode payload =
  enqueue t
    (E_raw
       (Message.make ~src:t.self ~dst ~kind:(Message.Data { opcode }) ~corr:0
          ~is_reply:false ~cls:0 ~payload ~now:(now t)))

(* ------------------------------------------------------------------ *)
(* Fault handling *)

let quiesce t ~reason ~notify =
  (match t.m_state with
  | Draining _ | Offline -> ()
  | Running ->
    Perf.incr t.perf Perf.faults;
    obs_mark t ~corr:0 ~args:[ ("reason", reason) ] "fault";
    Array.iter Fifo.clear t.egress;
    Queue.clear t.rx;
    Itbl.reset t.reply_ok;
    Itbl.reset t.conn_buckets;
    (* Fail every outstanding RPC locally. *)
    let pend = Itbl.fold (fun corr (_, cb) acc -> (corr, cb) :: acc) t.pending [] in
    Itbl.reset t.pending;
    List.iter (fun (_, cb) -> cb (Error (Nacked reason))) pend;
    (* Revoke send caps we granted to peers and everything derived from
       our own table (shared segments given to other tiles). *)
    List.iter (fun (st, h) -> ignore (Store.revoke st h)) t.granted;
    t.granted <- [];
    ignore (Store.revoke_all t.m_store);
    if notify then t.fabric.f_on_fault t.m_tile reason)

let fault t reason =
  match t.m_state with
  | Draining _ | Offline -> ()
  | Running ->
    quiesce t ~reason ~notify:true;
    t.m_state <- Draining reason

let set_offline t =
  quiesce t ~reason:"reconfiguration" ~notify:false;
  t.m_state <- Offline

let raise_fault t reason = fault t (Printf.sprintf "accelerator fault: %s" reason)

let reset t b =
  t.m_state <- Running;
  (* A parked Draining/Offline monitor must tick again once reprogrammed
     (the new behavior may have on_tick work before any message lands). *)
  Sim.rearm t.m_sim t.m_handle;
  t.behavior <- b;
  t.busy_until <- 0;
  t.last_progress <- now t;
  t.m_store <- Store.create ~capacity:cap_capacity ~tile:t.m_tile ();
  Sim.after t.m_sim 1 (fun () -> if t.behavior == b then b.on_boot t)

(* ------------------------------------------------------------------ *)
(* Ingress *)

let nack t (m : Message.t) reason =
  if m.Message.corr > 0 && not m.Message.is_reply then begin
    Perf.incr t.perf Perf.nacks;
    let reply =
      Message.make ~src:t.ctl ~dst:m.Message.src
        ~kind:(Message.Control (Message.Nack { reason }))
        ~corr:m.Message.corr ~is_reply:true ~cls:0 ~payload:Bytes.empty ~now:(now t)
    in
    (* A draining monitor bypasses its own dead egress queue. *)
    t.fabric.f_inject reply
  end

let handle_connect_req t (m : Message.t) =
  let respond_ctl control = control_reply t m Bytes.empty control in
  match t.connect_policy m.Message.src with
  | Refuse -> respond_ctl (Message.Connect_denied { reason = "refused by policy" })
  | (Accept | Accept_limited _) as decision ->
    let requester_store = t.fabric.f_store_of m.Message.src.Message.tile in
    (match
       Store.mint requester_store
         (Store.Endpoint { tile = t.m_tile; endpoint = Message.app_ep })
         Rights.send
     with
    | Ok h ->
      t.granted <- (requester_store, h) :: t.granted;
      let rate_millis, burst =
        match decision with
        | Accept_limited { rate; burst } ->
          (max 1 (int_of_float (rate *. 1000.0)), burst)
        | Accept | Refuse -> (0, 0)
      in
      respond_ctl (Message.Connect_ok { cap = h; rate_millis; burst })
    | Error e ->
      respond_ctl
        (Message.Connect_denied { reason = Store.error_to_string e }))

let deliver_reply t (m : Message.t) =
  match Itbl.find t.pending m.Message.corr with
  | peer, cb when peer = m.Message.src.Message.tile ->
    Itbl.remove t.pending m.Message.corr;
    (match m.Message.kind with
    | Message.Control (Message.Nack { reason }) -> cb (Error (Nacked reason))
    | _ -> cb (Ok m))
  | _ | (exception Not_found) ->
    (* Unsolicited or late reply — count and drop. *)
    Perf.incr t.perf Perf.drops;
    obs_mark t ~corr:m.Message.corr
      ~args:[ ("reason", "unsolicited reply") ]
      "drop"

let ingress t (m : Message.t) =
  match t.m_state with
  | Draining _ ->
    obs_mark t ~corr:m.Message.corr ~args:[ ("reason", "draining") ] "drop";
    nack t m "fail-stop"
  | Offline ->
    obs_mark t ~corr:m.Message.corr ~args:[ ("reason", "offline") ] "drop"
  | Running ->
    (* Whatever this message triggers (rx work, a reply continuation, a
       control response), the next tick must see it. *)
    Sim.rearm t.m_sim t.m_handle;
    Perf.incr t.perf Perf.msgs_in;
    if m.Message.is_reply then deliver_reply t m
    else begin
      match m.Message.kind with
      | Message.Control Message.Connect_req -> handle_connect_req t m
      | _ -> Queue.add m t.rx
    end

(* ------------------------------------------------------------------ *)
(* Shell delivery + tick *)

let deliver_one t =
  if now t >= t.busy_until && not (Queue.is_empty t.rx) then begin
    let m = Queue.take t.rx in
    t.last_progress <- now t;
    (* Open a one-shot reply window for a data request. A control
       request is answered on the control path (priv_respond_control),
       which needs no window, so it opens none. *)
    (match m.Message.kind with
    | Message.Data _ when m.Message.corr > 0 && not m.Message.is_reply ->
      let key = reply_key m.Message.src.Message.tile m.Message.corr in
      if key >= 0 then begin
        match Itbl.find_opt t.reply_ok key with
        | None -> Itbl.add t.reply_ok key 1
        | Some n -> Itbl.replace t.reply_ok key (n + 1)
      end
    | Message.Data _ | Message.Control _ -> ());
    t.behavior.on_message t m
  end

let egress_pending t = pick_egress t (Array.length t.egress - 1) >= 0

let busy_tick t =
  process_egress t;
  deliver_one t;
  (match t.behavior.on_tick with
  | Some f when now t >= t.busy_until -> f t
  | Some _ | None -> ());
  Sim.Busy

let tick t =
  match t.m_state with
  | Draining _ | Offline -> Sim.Idle
  | Running ->
    if t.behavior.on_tick = None && not (egress_pending t) then begin
      if Queue.is_empty t.rx then
        (* Nothing queued anywhere: process_egress and deliver_one would
           be no-ops. Staged-but-uncommitted egress keeps the sim
           non-quiescent via the dirty-FIFO list, so it cannot be jumped
           over. *)
        Sim.Idle
      else if now t < t.busy_until then
        (* Serving: queued rx waits for [busy_until], so every tick
           before then is a no-op. Ingress, an egress commit and [reset]
           all re-arm us early. *)
        Sim.Idle_until t.busy_until
      else busy_tick t
    end
    else busy_tick t

let create sim ~tile cfg fabric ~flight ~privileged behavior =
  let t =
    {
      m_sim = sim;
      m_tile = tile;
      cfg;
      fabric;
      privileged;
      m_rng = Rng.create ~seed:(0x5EED + tile);
      self = { Message.tile; ep = Message.app_ep };
      ctl = { Message.tile; ep = Message.control_ep };
      m_store = Store.create ~capacity:cap_capacity ~tile ();
      m_state = Running;
      egress =
        Array.init (max 1 cfg.egress_classes) (fun _ ->
            Fifo.create ~capacity:egress_capacity sim);
      bucket =
        (if cfg.enforce then Rate_limiter.create ~rate:cfg.rate ~burst:cfg.burst
         else Rate_limiter.unlimited ());
      next_corr = 0;
      pending = Itbl.create 16;
      rx = Queue.create ();
      behavior;
      busy_until = 0;
      connect_policy = (fun _ -> Accept);
      conn_buckets = Itbl.create 8;
      on_error = (fun _ -> ());
      reply_ok = Itbl.create 16;
      granted = [];
      perf = Perf.create ();
      flight;
      lat_added = Stats.Histogram.create (Printf.sprintf "mon%d.added-latency" tile);
      last_progress = 0;
      m_handle = Sim.no_handle;
    }
  in
  t.m_handle <- Sim.add_clocked_h ~name:"monitor" sim (fun () -> tick t);
  (* Egress entries becoming visible (commit) re-arm us so a parked
     monitor drains sends staged from events or external driver code. *)
  Array.iter (fun q -> Fifo.set_owner q t.m_handle) t.egress;
  (* Capture the behavior now: if the slot is reprogrammed before boot
     fires, the stale boot must not run the new behavior a second time. *)
  Sim.after sim 1 (fun () -> if t.behavior == behavior then behavior.on_boot t);
  t

(* ------------------------------------------------------------------ *)
(* Privileged operations *)

let require_priv t op =
  if not t.privileged then
    failwith (Printf.sprintf "tile %d: %s requires a privileged tile" t.m_tile op)

let priv_mint_segment t ~for_tile ~base ~len ~rights =
  require_priv t "priv_mint_segment";
  let st = t.fabric.f_store_of for_tile in
  match Store.mint st (Store.Segment { base; len }) rights with
  | Ok h -> h
  | Error e -> failwith (Store.error_to_string e)

let priv_revoke t ~for_tile h =
  require_priv t "priv_revoke";
  match Store.revoke (t.fabric.f_store_of for_tile) h with Ok n -> n | Error _ -> 0

let priv_respond_control t (req : Message.t) ?(payload = Bytes.empty)
    control =
  require_priv t "priv_respond_control";
  control_reply t req payload control

(* ------------------------------------------------------------------ *)
(* Stats *)

let perf t = t.perf
let msgs_in t = Perf.read t.perf Perf.msgs_in
let msgs_out t = Perf.read t.perf Perf.msgs_out
let denied t = Perf.read t.perf Perf.denials
let dropped t = Perf.read t.perf Perf.drops
let rate_stalls t = Rate_limiter.stalled_msgs t.bucket
let added_latency t = t.lat_added
let rx_backlog t = Queue.length t.rx
let reply_windows t = Itbl.fold (fun _ n acc -> acc + n) t.reply_ok 0
let last_progress t = t.last_progress
let has_egress_backlog t = egress_pending t
