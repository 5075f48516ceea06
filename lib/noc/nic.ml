module Sim = Apiary_engine.Sim
module Fabric = Router.Fabric
module Span = Apiary_obs.Span

type 'a t = {
  sim : Sim.t;
  fab : 'a Fabric.t;
  router : 'a Router.t;
  qos : bool;
  mutable obs_board : int;
  mutable obs_track : int;
  owner : int;  (* fabric owner id of the ejection channels *)
  inject_base : int;  (* router's Local input channel for vc 0 *)
  eject_base : int;  (* our ejection channel for vc 0 *)
  (* Per class: the transmit descriptor ring, grown on demand in
     power-of-two sizes. Entry [i] is [tx_pay.(c).(i)] plus [desc] ints
     from [tx_desc.(c).(desc * i)]: destination tile, raw class, flit
     count, send cycle and correlation id. The packet record is built
     when its head flit goes out, so a queued packet is plain ints. *)
  tx_desc : int array array;
  tx_pay : 'a array array;
  tx_head : int array;
  tx_len : int array;
  cur : int array;  (* per class: table slot being injected, -1 = none *)
  cur_len : int array;  (* per class: flits of [cur] *)
  sent : int array;  (* per class: flits of [cur] injected so far *)
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

let desc = 5

let send t ~dst ~cls ~corr ~size_flits ~now payload =
  let c = clamp t cls in
  let n = t.tx_len.(c) in
  if n = Array.length t.tx_pay.(c) then begin
    let size = max 8 (2 * n) in
    let d = t.tx_desc.(c) and p = t.tx_pay.(c) in
    let nd = Array.make (desc * size) 0 and np = Array.make size payload in
    for i = 0 to n - 1 do
      let j = (t.tx_head.(c) + i) land (n - 1) in
      Array.blit d (desc * j) nd (desc * i) desc;
      np.(i) <- p.(j)
    done;
    t.tx_desc.(c) <- nd;
    t.tx_pay.(c) <- np;
    t.tx_head.(c) <- 0
  end;
  let i = (t.tx_head.(c) + n) land (Array.length t.tx_pay.(c) - 1) in
  let d = t.tx_desc.(c) and k = desc * i in
  d.(k) <- dst;
  d.(k + 1) <- cls;
  d.(k + 2) <- size_flits;
  d.(k + 3) <- now;
  d.(k + 4) <- corr;
  t.tx_pay.(c).(i) <- payload;
  t.tx_len.(c) <- n + 1;
  (* Sends can arrive from a monitor's tick, an event, or driver code
     between runs; re-arm just this NIC (not the whole simulator) so
     parking and fast-forward cannot jump past the new work. *)
  Sim.rearm t.sim t.handle

let set_rx t cb = t.rx_cb <- cb

let tx_backlog t =
  let n = ref 0 in
  for c = 0 to Array.length t.cur - 1 do
    n := !n + t.tx_len.(c) + if t.cur.(c) >= 0 then 1 else 0
  done;
  !n

let injected t = t.injected
let delivered t = t.delivered

(* Class [c] has a packet in flight or queued. *)
let ready t c = t.cur.(c) >= 0 || t.tx_len.(c) > 0

let rec find_class t n k =
  if k >= n then -1
  else
    let c =
      if t.qos then n - 1 - k
      else if t.rr_cls + k >= n then t.rr_cls + k - n
      else t.rr_cls + k
    in
    if ready t c then c else find_class t n (k + 1)

(* The class to inject from this cycle, or -1 when none is ready:
   highest class with work when QoS is on, else round-robin over ready
   classes so no class starves the injection port. *)
let pick_class t = find_class t (Array.length t.cur) 0

let inject t c =
  if not t.qos then t.rr_cls <- (if c + 1 = Array.length t.cur then 0 else c + 1);
  if t.cur.(c) < 0 then begin
    let i = t.tx_head.(c) and d = t.tx_desc.(c) in
    let k = desc * i in
    let pkt =
      Packet.make ~src:(coord t) ~dst:(Fabric.coord t.fab d.(k)) ~cls:d.(k + 1)
        ~size_flits:d.(k + 2) ~now:d.(k + 3) ~corr:d.(k + 4) ~payload:t.tx_pay.(c).(i)
    in
    t.tx_head.(c) <- (i + 1) land (Array.length t.tx_pay.(c) - 1);
    t.tx_len.(c) <- t.tx_len.(c) - 1;
    t.cur.(c) <- Fabric.alloc t.fab pkt;
    t.cur_len.(c) <- pkt.Packet.size_flits;
    t.sent.(c) <- 0
  end;
  let s = t.cur.(c) and idx = t.sent.(c) in
  (* A full channel (the common case at saturation) leaves the packet
     where it is. *)
  if Fabric.inject t.fab (t.inject_base + c) ~slot:s ~idx then begin
    if idx = 0 && Span.on () then begin
      (* Restamp so the first hop span measures from wire entry, not
         from creation (the packet may have queued in the NIC). *)
      let pkt = Fabric.packet t.fab s in
      Packet.set_hop_ts pkt (Sim.now t.sim);
      Span.instant ~board:t.obs_board ~corr:pkt.Packet.corr
        ~cat:"noc" ~name:"inject" ~track:t.obs_track ~ts:(Sim.now t.sim) ()
    end;
    t.sent.(c) <- idx + 1;
    if idx + 1 >= t.cur_len.(c) then begin
      t.cur.(c) <- -1;
      t.injected <- t.injected + 1
    end
  end

(* The tail flit completes its packet: the slot is free again before the
   receiver runs, since every flit of the packet has left the fabric. *)
let deliver t s =
  let pkt = Fabric.packet t.fab s in
  Fabric.free t.fab s;
  t.delivered <- t.delivered + 1;
  if Span.on () then
    Span.instant ~board:t.obs_board ~corr:pkt.Packet.corr ~cat:"noc"
      ~name:"eject" ~track:t.obs_track ~ts:(Sim.now t.sim) ();
  t.rx_cb pkt

let eject t =
  for v = 0 to Array.length t.cur - 1 do
    let s = Fabric.eject t.fab (t.eject_base + v) in
    if s >= 0 then deliver t s
  done

let tick t =
  let c = pick_class t in
  let ejw = Fabric.occupancy t.fab t.owner > 0 in
  if c < 0 && not ejw then Sim.Idle
  else begin
    if c >= 0 then inject t c;
    if ejw then eject t;
    Sim.Busy
  end

let create sim fab ~router ~tile ~qos =
  let vcs = Router.vcs router in
  let t =
    {
      sim;
      fab;
      router;
      qos;
      obs_board = -1;
      obs_track = 0;
      owner = Fabric.nic_owner fab tile;
      inject_base = Fabric.input_chan fab ~tile ~port:(Port.index Port.Local) ~vc:0;
      eject_base = Fabric.eject_chan fab ~tile ~vc:0;
      tx_desc = Array.make vcs [||];
      tx_pay = Array.make vcs [||];
      tx_head = Array.make vcs 0;
      tx_len = Array.make vcs 0;
      cur = Array.make vcs (-1);
      cur_len = Array.make vcs 0;
      sent = Array.make vcs 0;
      rx_cb = (fun _ -> ());
      injected = 0;
      delivered = 0;
      rr_cls = 0;
      handle = Sim.no_handle;
    }
  in
  (* The router's Local outputs feed our ejection channels. *)
  for v = 0 to vcs - 1 do
    Router.connect router ~port:Port.Local ~vc:v ~dest:(t.eject_base + v)
  done;
  let h = Sim.add_clocked_h ~name:"noc.nic" sim (fun () -> tick t) in
  t.handle <- h;
  (* Flits published into the ejection channels re-arm the NIC. *)
  Fabric.set_handle fab t.owner h;
  t
