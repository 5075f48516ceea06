module Sim = Apiary_engine.Sim
module Fifo = Apiary_engine.Fifo
module Span = Apiary_obs.Span

type 'a inflight = { pkt : 'a Packet.t; mutable next_idx : int }

type 'a t = {
  sim : Sim.t;
  router : 'a Router.t;
  qos : bool;
  mutable obs_board : int;
  mutable obs_track : int;
  tx : 'a Packet.t Queue.t array;  (* per class *)
  cur : 'a inflight option array;  (* per class *)
  eject : 'a Router.chan array;  (* per VC *)
  ej_occ : int ref;  (* flits staged or buffered across ejection channels *)
  mutable rx_cb : 'a Packet.t -> unit;
  mutable injected : int;
  mutable delivered : int;
  mutable rr_cls : int;  (* fair rotation over classes when QoS is off *)
  mutable handle : Sim.handle;  (* our ticker, re-armed on send/eject *)
}

let coord t = Router.coord t.router
let handle t = t.handle

let set_obs t ~board ~track =
  t.obs_board <- board;
  t.obs_track <- track

let clamp t cls =
  let v = Router.vcs t.router in
  if cls >= v then v - 1 else if cls < 0 then 0 else cls

let send t pkt =
  Queue.add pkt t.tx.(clamp t pkt.Packet.cls);
  (* Sends can arrive from a monitor's tick, an event, or driver code
     between runs; re-arm just this NIC (not the whole simulator) so
     parking and fast-forward cannot jump past the new work. *)
  Sim.rearm t.sim t.handle

let set_rx t cb = t.rx_cb <- cb

let tx_backlog t =
  let queued = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.tx in
  let inflight =
    Array.fold_left
      (fun acc c -> match c with Some _ -> acc + 1 | None -> acc)
      0 t.cur
  in
  queued + inflight

let injected t = t.injected
let delivered t = t.delivered

(* The per-tick helpers below are top-level loops, not closures, so a
   busy NIC allocates nothing to decide what to do. *)

(* Class [c] has a packet in flight or queued. *)
let ready t c =
  match t.cur.(c) with Some _ -> true | None -> not (Queue.is_empty t.tx.(c))

let rec find_class t n k =
  if k >= n then -1
  else
    let c = if t.qos then n - 1 - k else (t.rr_cls + k) mod n in
    if ready t c then c else find_class t n (k + 1)

(* Pick the class to inject from this cycle, or -1 when none is ready:
   highest class with work when QoS is on, else round-robin over ready
   classes so no class starves the injection port. *)
let pick_class t =
  let n = Array.length t.tx in
  let c = find_class t n 0 in
  if c >= 0 && not t.qos then t.rr_cls <- (c + 1) mod n;
  c

let inject t =
  let c = pick_class t in
  if c >= 0 then begin
    let inf =
      match t.cur.(c) with
      | Some inf -> inf
      | None ->
        let pkt = Queue.take t.tx.(c) in
        let inf = { pkt; next_idx = 0 } in
        t.cur.(c) <- Some inf;
        inf
    in
    let chan = Router.input_chan t.router Port.Local c in
    (* Don't allocate the flit when the channel is full (the common case
       at saturation); pick_class has already advanced rr_cls, exactly as
       on the failed-push path. *)
    if not (Fifo.is_full chan.Router.buf) then begin
      let flit = { Packet.Flit.pkt = inf.pkt; idx = inf.next_idx } in
      Router.chan_push_exn chan flit;
      if flit.idx = 0 && Span.on () then begin
        (* Restamp so the first hop span measures from wire entry, not
           from creation (the packet may have queued in the NIC). *)
        Packet.set_hop_ts inf.pkt (Sim.now t.sim);
        Span.instant ~board:t.obs_board ~corr:inf.pkt.Packet.corr
          ~cat:"noc" ~name:"inject" ~track:t.obs_track ~ts:(Sim.now t.sim) ()
      end;
      inf.next_idx <- inf.next_idx + 1;
      if inf.next_idx >= inf.pkt.Packet.size_flits then begin
        t.cur.(c) <- None;
        t.injected <- t.injected + 1
      end
    end
  end

let deliver t (f : 'a Packet.Flit.t) =
  if Packet.Flit.is_tail f then begin
    t.delivered <- t.delivered + 1;
    if Span.on () then
      Span.instant ~board:t.obs_board ~corr:f.pkt.Packet.corr ~cat:"noc"
        ~name:"eject" ~track:t.obs_track ~ts:(Sim.now t.sim) ();
    t.rx_cb f.pkt
  end

let eject t =
  for v = 0 to Array.length t.eject - 1 do
    let chan = t.eject.(v) in
    if not (Fifo.is_empty chan.Router.buf) then
      deliver t (Router.chan_pop_exn chan)
  done

let has_tx t = find_class t (Array.length t.tx) 0 >= 0

let tick t =
  let txw = has_tx t in
  let ejw = !(t.ej_occ) > 0 in
  if not (txw || ejw) then Sim.Idle
  else begin
    if txw then inject t;
    if ejw then eject t;
    Sim.Busy
  end

let create sim ~router ~depth ~qos =
  let vcs = Router.vcs router in
  let c = Router.coord router in
  let ej_occ = ref 0 in
  let eject =
    Array.init vcs (fun v ->
        Router.make_chan ~counter:ej_occ sim ~depth
          (Printf.sprintf "nic%s.ej.%d" (Coord.to_string c) v))
  in
  let t =
    {
      sim;
      router;
      qos;
      obs_board = -1;
      obs_track = 0;
      tx = Array.init vcs (fun _ -> Queue.create ());
      cur = Array.make vcs None;
      eject;
      ej_occ;
      rx_cb = (fun _ -> ());
      injected = 0;
      delivered = 0;
      rr_cls = 0;
      handle = Sim.no_handle;
    }
  in
  (* Wire the router's Local outputs to our ejection buffers, with credit
     return on drain. *)
  Array.iteri
    (fun v chan ->
      Router.connect router ~port:Port.Local ~vc:v ~dest:chan ~credits:depth;
      (* Credit returns batched through the commit phase; see Mesh.wire. *)
      let pending = ref 0 in
      let drain () =
        let n = !pending in
        pending := 0;
        for _ = 1 to n do Router.credit router ~port:Port.Local ~vc:v done
      in
      chan.Router.on_pop <-
        (fun () ->
          if !pending = 0 then Sim.mark_dirty sim drain;
          incr pending))
    eject;
  let h = Sim.add_clocked_h ~name:"noc.nic" sim (fun () -> tick t) in
  t.handle <- h;
  (* Flits landing in the ejection buffers re-arm the NIC. *)
  Array.iter (fun chan -> Fifo.set_owner chan.Router.buf h) eject;
  t
