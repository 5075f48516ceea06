module Sim = Apiary_engine.Sim
module Fabric = Router.Fabric
module Stats = Apiary_engine.Stats
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry

type config = {
  cols : int;
  rows : int;
  vcs : int;
  depth : int;
  flit_bytes : int;
  routing : Routing.t;
  qos : bool;
}

let default_config =
  {
    cols = 4;
    rows = 4;
    vcs = 2;
    depth = 4;
    flit_bytes = 16;
    routing = Routing.Xy;
    qos = false;
  }

type 'a t = {
  sim : Sim.t;
  cfg : config;
  routers : 'a Router.t array;
  nics : 'a Nic.t array;
  rx_cbs : ('a Packet.t -> unit) array;
  lat_all : Stats.Histogram.t;
  lat_cls : Stats.Histogram.t array;  (* per class *)
  hops : Stats.Histogram.t;
  mutable sent : int;
  mutable delivered : int;
  mutable obs_board : int;  (* board id stamped on Span events; -1 = none *)
}

let sim t = t.sim
let config t = t.cfg
let idx t (c : Coord.t) = Coord.to_index ~cols:t.cfg.cols c

let in_bounds t (c : Coord.t) =
  c.x >= 0 && c.x < t.cfg.cols && c.y >= 0 && c.y < t.cfg.rows

let coords t =
  List.init (t.cfg.cols * t.cfg.rows) (fun i -> Coord.of_index ~cols:t.cfg.cols i)

let router_at t c = t.routers.(idx t c)

let send t ~src ~dst ?(cls = 0) ?(corr = 0) ~payload_bytes payload =
  assert (in_bounds t src && in_bounds t dst);
  assert (cls >= 0);
  let size_flits = Packet.flits_for ~flit_bytes:t.cfg.flit_bytes ~payload_bytes in
  t.sent <- t.sent + 1;
  Nic.send t.nics.(idx t src) ~dst:(idx t dst) ~cls ~corr ~size_flits ~now:(Sim.now t.sim)
    payload

let set_obs_board t board =
  t.obs_board <- board;
  Array.iteri (fun i r -> Router.set_obs r ~board ~track:i) t.routers;
  Array.iteri (fun i n -> Nic.set_obs n ~board ~track:i) t.nics

let set_receiver t c cb = t.rx_cbs.(idx t c) <- cb

let clamp_cls t cls = if cls >= t.cfg.vcs then t.cfg.vcs - 1 else cls
let latency t = t.lat_all
let latency_of_class t cls = t.lat_cls.(clamp_cls t cls)
let hop_histogram t = t.hops
let packets_sent t = t.sent
let packets_delivered t = t.delivered
let flits_routed t = Array.fold_left (fun a r -> a + Router.flits_routed r) 0 t.routers

let tx_backlog t = Array.fold_left (fun a n -> a + Nic.tx_backlog n) 0 t.nics

(* Armed (active-set) router and NIC tickers per mesh column, read on
   demand by the [noc.active_cols] sampler instead of being counted on
   every park and re-arm. *)
let column_activity t =
  let cols = Array.make t.cfg.cols 0 in
  let count i h =
    if Sim.armed t.sim h then begin
      let x = i mod t.cfg.cols in
      cols.(x) <- cols.(x) + 1
    end
  in
  Array.iteri (fun i r -> count i (Router.handle r)) t.routers;
  Array.iteri (fun i n -> count i (Nic.handle n)) t.nics;
  cols

let active_columns t =
  Array.fold_left (fun a n -> if n > 0 then a + 1 else a) 0 (column_activity t)

let neighbor t (c : Coord.t) (p : Port.t) : Coord.t option =
  let c' =
    match p with
    | Port.North -> { c with Coord.y = c.y - 1 }
    | Port.South -> { c with Coord.y = c.y + 1 }
    | Port.East -> { c with Coord.x = c.x + 1 }
    | Port.West -> { c with Coord.x = c.x - 1 }
    | Port.Local -> c
  in
  if p <> Port.Local && in_bounds t c' then Some c' else None

let wire t fab =
  let link_dirs = [ Port.North; Port.East; Port.South; Port.West ] in
  let wire_one c =
    let r = router_at t c in
    let wire_dir p =
      match neighbor t c p with
      | None -> ()
      | Some nc ->
        for v = 0 to t.cfg.vcs - 1 do
          Router.connect r ~port:p ~vc:v
            ~dest:
              (Fabric.input_chan fab ~tile:(idx t nc)
                 ~port:(Port.index (Port.opposite p)) ~vc:v)
        done
    in
    List.iter wire_dir link_dirs
  in
  List.iter wire_one (coords t)

let create sim cfg =
  assert (cfg.cols >= 1 && cfg.rows >= 1);
  assert (cfg.vcs >= 1 && cfg.depth >= 1 && cfg.flit_bytes >= 1);
  let n = cfg.cols * cfg.rows in
  let fab =
    Fabric.create sim ~cols:cfg.cols ~rows:cfg.rows ~vcs:cfg.vcs ~depth:cfg.depth
  in
  let routers =
    Array.init n (fun tile ->
        Router.create sim fab ~tile ~routing:cfg.routing ~qos:cfg.qos)
  in
  let nics =
    Array.mapi (fun tile router -> Nic.create sim fab ~router ~tile ~qos:cfg.qos) routers
  in
  let t =
    {
      sim;
      cfg;
      routers;
      nics;
      rx_cbs = Array.make n (fun _ -> ());
      lat_all = Stats.Histogram.create "noc.latency";
      lat_cls =
        Array.init cfg.vcs (fun c ->
            Stats.Histogram.create (Printf.sprintf "noc.latency.c%d" c));
      hops = Stats.Histogram.create "noc.hops";
      sent = 0;
      delivered = 0;
      obs_board = -1;
    }
  in
  wire t fab;
  (* Transfer span args by hop count, shared by every span. *)
  let xfer_args =
    Array.init (cfg.cols + cfg.rows - 1) (fun h -> [ ("hops", string_of_int h) ])
  in
  (* Delivery hook: record stats, then hand to the tile's receiver. *)
  Array.iteri
    (fun i nic ->
      Nic.set_rx nic (fun pkt ->
          let lat = Sim.now sim - pkt.Packet.injected_at in
          Stats.Histogram.record t.lat_all lat;
          Stats.Histogram.record t.lat_cls.(clamp_cls t pkt.Packet.cls) lat;
          Stats.Histogram.record t.hops (Packet.hops pkt);
          t.delivered <- t.delivered + 1;
          if Span.on () then
            (* End-to-end transfer span, timed from NIC-queue entry so it
               covers injection backlog plus the per-hop child spans. *)
            Span.complete ~board:t.obs_board ~corr:pkt.Packet.corr
              ~args:xfer_args.(Packet.hops pkt)
              ~cat:"noc" ~name:"xfer" ~track:i ~ts:pkt.Packet.injected_at
              ~dur:lat ();
          t.rx_cbs.(i) pkt))
    nics;
  t

(* The NoC sampler's gauges, per router and mesh-wide. *)
type gauges = {
  occ : Stats.Gauge.t array;
  util : Stats.Gauge.t array;
  sent_g : Stats.Gauge.t;
  delivered_g : Stats.Gauge.t;
  active_cols_g : Stats.Gauge.t;
}

let register_metrics t ~prefix =
  (* The sampler looks its gauges up and registers the histograms on its
     first run, not here (a benchmark's timed setup calls this), and
     keeps the handles: [Registry.clear] drops it together with them. *)
  let resolve () =
    let router field i =
      let c = Coord.of_index ~cols:t.cfg.cols i in
      Registry.gauge
        (Printf.sprintf "%s.noc.r%d_%d.%s" prefix c.Coord.x c.Coord.y field)
    in
    let n = Array.length t.routers in
    let g =
      {
        occ = Array.init n (router "occ");
        util = Array.init n (router "util");
        sent_g = Registry.gauge (prefix ^ ".noc.sent");
        delivered_g = Registry.gauge (prefix ^ ".noc.delivered");
        active_cols_g = Registry.gauge (prefix ^ ".noc.active_cols");
      }
    in
    Registry.register (prefix ^ ".noc.latency") (Registry.Histogram (latency t));
    Registry.register (prefix ^ ".noc.hops") (Registry.Histogram (hop_histogram t));
    g
  in
  let gauges = ref None in
  Registry.add_sampler
    ~name:(prefix ^ ".noc")
    (fun () ->
      let g =
        match !gauges with
        | Some g -> g
        | None ->
          let g = resolve () in
          gauges := Some g;
          g
      in
      let now = Sim.now t.sim in
      Array.iteri
        (fun i r ->
          Stats.Gauge.set g.occ.(i) (float_of_int (Router.input_occupancy r));
          let util =
            if now = 0 then 0.0
            else float_of_int (Router.busy_cycles r) /. float_of_int now
          in
          Stats.Gauge.set g.util.(i) util)
        t.routers;
      Stats.Gauge.set g.sent_g (float_of_int (packets_sent t));
      Stats.Gauge.set g.delivered_g (float_of_int (packets_delivered t));
      Stats.Gauge.set g.active_cols_g (float_of_int (active_columns t)))
