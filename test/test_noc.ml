(* Tests for the NoC: routing correctness, end-to-end delivery, latency
   model sanity, credit/backpressure safety, QoS arbitration, and traffic
   patterns. *)

module Sim = Apiary_engine.Sim
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Coord = Apiary_noc.Coord
module Port = Apiary_noc.Port
module Packet = Apiary_noc.Packet
module Routing = Apiary_noc.Routing
module Mesh = Apiary_noc.Mesh
module Traffic = Apiary_noc.Traffic
module Router = Apiary_noc.Router
module Perf = Apiary_obs.Perf

let mk_mesh ?(cols = 4) ?(rows = 4) ?(vcs = 2) ?(depth = 4) ?(qos = false)
    ?(routing = Routing.Xy) sim : int Mesh.t =
  Mesh.create sim
    { Mesh.cols; rows; vcs; depth; flit_bytes = 16; routing; qos }

(* ------------------------------------------------------------------ *)
(* Port / Coord / Packet basics *)

let test_port_opposite () =
  List.iter
    (fun p -> Alcotest.(check bool) "involution" true (Port.opposite (Port.opposite p) = p))
    Port.all

let test_coord_roundtrip () =
  for i = 0 to 19 do
    let c = Coord.of_index ~cols:5 i in
    Alcotest.(check int) "roundtrip" i (Coord.to_index ~cols:5 c)
  done

let test_coord_hops () =
  Alcotest.(check int) "manhattan" 5 (Coord.hops (Coord.make 0 0) (Coord.make 2 3))

let test_flits_for () =
  Alcotest.(check int) "empty payload" 1 (Packet.flits_for ~flit_bytes:16 ~payload_bytes:0);
  Alcotest.(check int) "one byte" 2 (Packet.flits_for ~flit_bytes:16 ~payload_bytes:1);
  Alcotest.(check int) "exact" 2 (Packet.flits_for ~flit_bytes:16 ~payload_bytes:16);
  Alcotest.(check int) "17 bytes" 3 (Packet.flits_for ~flit_bytes:16 ~payload_bytes:17)

let prop_flits_positive =
  QCheck.Test.make ~name:"flit count >= 1 and monotone" ~count:200
    QCheck.(pair (int_range 1 64) (int_bound 100_000))
    (fun (fb, pb) ->
      let f = Packet.flits_for ~flit_bytes:fb ~payload_bytes:pb in
      let f' = Packet.flits_for ~flit_bytes:fb ~payload_bytes:(pb + fb) in
      f >= 1 && f' = f + 1)

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_routing_xy () =
  let at = Coord.make 1 1 in
  Alcotest.(check string) "east first"
    "east"
    (Port.to_string (Routing.next_port Routing.Xy ~at ~dst:(Coord.make 3 3)));
  Alcotest.(check string) "then south"
    "south"
    (Port.to_string (Routing.next_port Routing.Xy ~at ~dst:(Coord.make 1 3)));
  Alcotest.(check string) "local at dst"
    "local"
    (Port.to_string (Routing.next_port Routing.Xy ~at ~dst:at))

let test_routing_yx () =
  let at = Coord.make 1 1 in
  Alcotest.(check string) "south first"
    "south"
    (Port.to_string (Routing.next_port Routing.Yx ~at ~dst:(Coord.make 3 3)))

let prop_routing_progress =
  (* Following the routing function always reaches the destination in
     exactly [hops] steps. *)
  QCheck.Test.make ~name:"xy routing reaches dst in hop-count steps" ~count:300
    QCheck.(quad (int_bound 7) (int_bound 7) (int_bound 7) (int_bound 7))
    (fun (ax, ay, bx, by) ->
      let src = Coord.make ax ay and dst = Coord.make bx by in
      let rec walk at steps =
        if steps > 64 then None
        else
          match Routing.next_port Routing.Xy ~at ~dst with
          | Port.Local -> Some steps
          | Port.East -> walk (Coord.make (at.Coord.x + 1) at.Coord.y) (steps + 1)
          | Port.West -> walk (Coord.make (at.Coord.x - 1) at.Coord.y) (steps + 1)
          | Port.South -> walk (Coord.make at.Coord.x (at.Coord.y + 1)) (steps + 1)
          | Port.North -> walk (Coord.make at.Coord.x (at.Coord.y - 1)) (steps + 1)
      in
      walk src 0 = Some (Coord.hops src dst))

(* ------------------------------------------------------------------ *)
(* Mesh end-to-end *)

let test_mesh_single_delivery () =
  let sim = Sim.create () in
  let mesh = mk_mesh sim in
  let got = ref [] in
  Mesh.set_receiver mesh (Coord.make 3 3) (fun pkt -> got := pkt.Packet.payload :: !got);
  Mesh.send mesh ~src:(Coord.make 0 0) ~dst:(Coord.make 3 3) ~payload_bytes:32 99;
  Sim.run_for sim 100;
  Alcotest.(check (list int)) "payload delivered" [ 99 ] !got;
  Alcotest.(check int) "counted" 1 (Mesh.packets_delivered mesh)

(* The [noc.active_cols] gauge: columns with an armed router or NIC. A
   crossing packet keeps its path's columns active; once it drains every
   router and NIC parks again. *)
let test_mesh_active_columns () =
  let sim = Sim.create () in
  let mesh = mk_mesh sim in
  Sim.run_for sim 10;
  Alcotest.(check int) "idle mesh parks" 0 (Mesh.active_columns mesh);
  Mesh.send mesh ~src:(Coord.make 0 0) ~dst:(Coord.make 3 0) ~payload_bytes:256 0;
  Sim.run_for sim 5;
  Alcotest.(check bool) "active while crossing" true (Mesh.active_columns mesh > 0);
  Sim.run_for sim 500;
  Alcotest.(check int) "delivered" 1 (Mesh.packets_delivered mesh);
  Alcotest.(check int) "drained" 0 (Mesh.active_columns mesh)

let test_mesh_latency_scales_with_hops () =
  (* 1-hop vs 6-hop latency must differ by roughly the hop delta. *)
  let run src dst =
    let sim = Sim.create () in
    let mesh = mk_mesh sim in
    Mesh.send mesh ~src ~dst ~payload_bytes:0 0;
    Sim.run_for sim 200;
    Alcotest.(check int) "delivered" 1 (Mesh.packets_delivered mesh);
    Stats.Histogram.max_value (Mesh.latency mesh)
  in
  let near = run (Coord.make 0 0) (Coord.make 1 0) in
  let far = run (Coord.make 0 0) (Coord.make 3 3) in
  let hop_delta = 5 in
  Alcotest.(check bool)
    (Printf.sprintf "far(%d) - near(%d) ~ hops" far near)
    true
    (far - near >= hop_delta - 1 && far - near <= hop_delta + 3)

let test_mesh_serialization_latency () =
  (* A large packet takes longer than a small one over the same path. *)
  let run bytes =
    let sim = Sim.create () in
    let mesh = mk_mesh sim in
    Mesh.send mesh ~src:(Coord.make 0 0) ~dst:(Coord.make 3 0) ~payload_bytes:bytes 0;
    Sim.run_for sim 1000;
    Stats.Histogram.max_value (Mesh.latency mesh)
  in
  let small = run 0 and big = run 512 in
  (* 512B = 32 extra flits to serialize. *)
  Alcotest.(check bool)
    (Printf.sprintf "big(%d) >= small(%d)+32" big small)
    true
    (big >= small + 32)

let test_mesh_all_pairs_delivery () =
  (* Every tile sends to every other tile; everything must arrive exactly
     once with no drops (credit flow control must never lose flits). *)
  let sim = Sim.create () in
  let mesh = mk_mesh ~cols:3 ~rows:3 sim in
  let expected = ref 0 in
  let received = ref 0 in
  List.iter
    (fun c -> Mesh.set_receiver mesh c (fun _ -> incr received))
    (Mesh.coords mesh);
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if not (Coord.equal src dst) then begin
            incr expected;
            Mesh.send mesh ~src ~dst ~payload_bytes:64 0
          end)
        (Mesh.coords mesh))
    (Mesh.coords mesh);
  Sim.run_for sim 5000;
  Alcotest.(check int) "all delivered" !expected !received;
  Alcotest.(check int) "backlog drained" 0 (Mesh.tx_backlog mesh)

let test_mesh_wormhole_contiguity () =
  (* Two big packets from different sources to the same destination must
     both arrive intact (wormhole keeps their flit trains separate). *)
  let sim = Sim.create () in
  let mesh = mk_mesh sim in
  let got = ref [] in
  Mesh.set_receiver mesh (Coord.make 2 2) (fun pkt -> got := pkt.Packet.payload :: !got);
  Mesh.send mesh ~src:(Coord.make 0 0) ~dst:(Coord.make 2 2) ~payload_bytes:256 1;
  Mesh.send mesh ~src:(Coord.make 3 3) ~dst:(Coord.make 2 2) ~payload_bytes:256 2;
  Sim.run_for sim 2000;
  Alcotest.(check int) "both arrived" 2 (List.length !got);
  Alcotest.(check bool) "distinct payloads" true
    (List.sort compare !got = [ 1; 2 ])

let test_mesh_heavy_random_load_no_loss () =
  let sim = Sim.create () in
  let mesh = mk_mesh ~cols:4 ~rows:4 sim in
  let rng = Rng.create ~seed:11 in
  let gen =
    Traffic.start mesh ~rng ~pattern:Traffic.Uniform ~rate:0.05 ~payload_bytes:64
      ~payload:0 ()
  in
  Sim.run_for sim 3000;
  Traffic.stop_gen gen;
  Sim.run_for sim 3000;
  Alcotest.(check int) "sent = delivered after drain" (Mesh.packets_sent mesh)
    (Mesh.packets_delivered mesh);
  Alcotest.(check bool) "nonzero traffic" true (Mesh.packets_sent mesh > 500)

let test_mesh_1x1 () =
  (* Degenerate single-tile mesh: self-sends are the only option and the
     generator should simply not inject. *)
  let sim = Sim.create () in
  let mesh = mk_mesh ~cols:1 ~rows:1 sim in
  Sim.run_for sim 50;
  Alcotest.(check int) "no packets" 0 (Mesh.packets_sent mesh)

let test_mesh_yx_routing_delivers () =
  let sim = Sim.create () in
  let mesh = mk_mesh ~routing:Routing.Yx sim in
  let ok = ref false in
  Mesh.set_receiver mesh (Coord.make 3 1) (fun _ -> ok := true);
  Mesh.send mesh ~src:(Coord.make 0 2) ~dst:(Coord.make 3 1) ~payload_bytes:128 0;
  Sim.run_for sim 500;
  Alcotest.(check bool) "delivered via yx" true !ok


let prop_mesh_always_drains =
  (* Deadlock-freedom evidence: across random mesh shapes, VC counts,
     buffer depths, routing orders, QoS on or off, classes 0-2 and
     per-packet payload sizes, every injected packet is delivered once
     injection stops: exactly once, at its own destination, in send
     order per (src, dst, class), leaving every router's buffers empty.
     Each packet carries its send index as its payload, so a
     packet-table slot that is freed early or reused while a packet
     still holds it shows up as a lost, duplicated or misdelivered
     payload. *)
  QCheck.Test.make ~name:"random configs always drain (no deadlock/loss)" ~count:40
    QCheck.(
      quad
        (pair (int_range 1 5) (int_range 1 5))  (* cols, rows *)
        (pair (int_range 1 3) (int_range 1 8))  (* vcs, depth *)
        (triple bool bool (int_range 0 600))  (* yx routing, qos, max payload *)
        (int_range 1 60) (* packets *))
    (fun ((cols, rows), (vcs, depth), (yx, qos, max_payload), npkts) ->
      QCheck.assume (cols * rows > 1);
      let sim = Sim.create () in
      let mesh : int Mesh.t =
        Mesh.create sim
          { Mesh.cols; rows; vcs; depth; flit_bytes = 16;
            routing = (if yx then Routing.Yx else Routing.Xy); qos }
      in
      let rng = Rng.create ~seed:(cols + (7 * rows) + (31 * npkts) + max_payload) in
      let tiles = Array.of_list (Mesh.coords mesh) in
      (* Send index -> (destination tile, (src, dst, class) key). *)
      let sent = Array.make npkts (Coord.make 0 0, (Coord.make 0 0, Coord.make 0 0, 0)) in
      let n_sent = ref 0 in
      let got = Array.make npkts 0 in
      let ok = ref true in
      (* Last delivered send index per (src, dst, class). *)
      let last = Hashtbl.create 16 in
      Array.iter
        (fun c ->
          Mesh.set_receiver mesh c (fun pkt ->
              let id = pkt.Packet.payload in
              let dst, key = sent.(id) in
              got.(id) <- got.(id) + 1;
              if not (Coord.equal c dst) then ok := false;
              (match Hashtbl.find_opt last key with
              | Some prev when prev > id -> ok := false
              | _ -> ());
              Hashtbl.replace last key id))
        tiles;
      (* Sends spread over the first cycles, so packets are allocated
         while others are in flight. *)
      for _ = 1 to npkts do
        Sim.run_for sim (Rng.int rng 4);
        let src = Rng.pick rng tiles and dst = Rng.pick rng tiles in
        let cls = Rng.int rng 3 in
        let payload_bytes = Rng.int rng (max_payload + 1) in
        if not (Coord.equal src dst) then begin
          let id = !n_sent in
          sent.(id) <- (dst, (src, dst, cls));
          incr n_sent;
          Mesh.send mesh ~src ~dst ~cls ~payload_bytes id
        end
      done;
      Sim.run_for sim ((npkts * 800) + 5_000);
      let got = Array.sub got 0 !n_sent in
      !ok
      && Array.for_all (fun n -> n = 1) got
      && Mesh.tx_backlog mesh = 0
      && Array.for_all
           (fun c -> Router.input_occupancy (Mesh.router_at mesh c) = 0)
           tiles)

(* ------------------------------------------------------------------ *)
(* Pinned model *)

(* Every NoC table is a pure function of the router model, so pin its
   observable counters for a few fixed-seed meshes that cover what E3
   does not: QoS arbitration, YX routing, one and three VCs, depth-1
   buffers, classes 0-2 on fewer VCs (arbitration keys on the raw class,
   the buffer on the clamped one), and 0 B and 600 B payloads. A change
   to how the router holds its state must leave every number below as
   it is. *)
type noc_pin = {
  pin_name : string;
  pin_cfg : Mesh.config;
  pin_seed : int;
  gen_cls : int option;  (* also run a uniform Traffic generator of this class *)
  routers : (int * int * int * int) list;
      (* per router, row-major: flits, busy cycles, credit stalls, occupancy peak *)
  lat : int * int * int * int * int * int;  (* count, sum, min, max, p50, p99 *)
  lat_sd : float;
  lat_cls : int list;  (* delivered count per VC's latency histogram *)
  hops : int * int * int;  (* count, sum, max *)
}

(* Drive [pin]'s mesh: 400 cycles of seeded sends from the driver (each
   tile sends with probability 0.06 a cycle, to a random other tile, in
   a random class 0-2, with a payload of 0, 16 or 600 bytes), plus the
   optional generator, then 20,000 cycles to drain. *)
let run_noc_pin pin =
  let sim = Sim.create () in
  let mesh : int Mesh.t = Mesh.create sim pin.pin_cfg in
  let rng = Rng.create ~seed:pin.pin_seed in
  let gen =
    Option.map
      (fun cls ->
        Traffic.start mesh ~rng:(Rng.create ~seed:(pin.pin_seed + 1))
          ~pattern:Traffic.Uniform ~rate:0.03 ~payload_bytes:32 ~cls ~payload:0 ())
      pin.gen_cls
  in
  let tiles = Array.of_list (Mesh.coords mesh) in
  let payloads = [| 0; 16; 600 |] in
  for _ = 1 to 400 do
    Array.iter
      (fun src ->
        if Rng.chance rng 0.06 then begin
          let dst = Rng.pick rng tiles in
          let cls = Rng.int rng 3 in
          let payload_bytes = Rng.pick rng payloads in
          if not (Coord.equal src dst) then
            Mesh.send mesh ~src ~dst ~cls ~payload_bytes 0
        end)
      tiles;
    Sim.step sim
  done;
  Option.iter Traffic.stop_gen gen;
  Sim.run_for sim 20_000;
  Alcotest.(check int) (pin.pin_name ^ " drained") (Mesh.packets_sent mesh)
    (Mesh.packets_delivered mesh);
  mesh

let noc_pins =
  let cfg = Mesh.default_config in
  [
    {
      pin_name = "3x3 yx qos 3vc depth2";
      pin_cfg =
        { cfg with Mesh.cols = 3; rows = 3; vcs = 3; depth = 2; routing = Routing.Yx;
          qos = true };
      pin_seed = 5;
      gen_cls = None;
      routers =
        [ (718, 534, 226, 8); (1041, 665, 215, 7); (798, 646, 331, 8);
          (1038, 670, 404, 11); (1297, 798, 204, 14); (1202, 744, 188, 10);
          (671, 484, 402, 6); (664, 515, 445, 12); (800, 624, 293, 7) ];
      lat = (194, 30694, 3, 613, 69, 613);
      lat_sd = 0x1.5a0dc424011bap+7;
      lat_cls = [ 66; 64; 64 ];
      hops = (194, 381, 4);
    };
    {
      pin_name = "4x2 xy 1vc depth1";
      pin_cfg =
        { cfg with Mesh.cols = 4; rows = 2; vcs = 1; depth = 1; routing = Routing.Xy;
          qos = false };
      pin_seed = 6;
      gen_cls = None;
      routers =
        [ (640, 594, 743, 3); (1008, 868, 642, 4); (1097, 947, 878, 4);
          (883, 833, 1039, 3); (655, 568, 1094, 3); (1214, 966, 1079, 4);
          (1102, 769, 992, 4); (844, 671, 757, 3) ];
      lat = (177, 77784, 3, 1226, 372, 1226);
      lat_sd = 0x1.3ba0a69aa02dbp+8;
      lat_cls = [ 177 ];
      hops = (177, 371, 4);
    };
    {
      pin_name = "3x2 xy qos 2vc depth1 + gen";
      pin_cfg =
        { cfg with Mesh.cols = 3; rows = 2; vcs = 2; depth = 1; routing = Routing.Xy;
          qos = true };
      pin_seed = 7;
      gen_cls = Some 2;
      routers =
        [ (485, 438, 1196, 3); (956, 792, 1440, 4); (906, 759, 1051, 4);
          (809, 724, 655, 3); (1337, 1053, 1051, 5); (1008, 844, 1204, 4) ];
      lat = (211, 93437, 3, 1533, 300, 1392);
      lat_sd = 0x1.8ce536d2dc55ap+8;
      lat_cls = [ 46; 165 ];
      hops = (211, 345, 3);
    };
  ]

let test_noc_pinned_model () =
  List.iter
    (fun pin ->
      let mesh = run_noc_pin pin in
      let name what = Printf.sprintf "%s %s" pin.pin_name what in
      let routers =
        List.map
          (fun c ->
            let p = Router.perf (Mesh.router_at mesh c) in
            ( Perf.read p Perf.flits,
              Perf.read p Perf.busy,
              Perf.read p Perf.credit_stalls,
              Perf.read p Perf.occ_peak ))
          (Mesh.coords mesh)
      in
      let module H = Stats.Histogram in
      let l = Mesh.latency mesh and h = Mesh.hop_histogram mesh in
      let lat =
        (H.count l, H.sum l, H.min_value l, H.max_value l, H.percentile l 50.0,
         H.percentile l 99.0)
      in
      let lat_cls =
        List.init pin.pin_cfg.Mesh.vcs (fun c -> H.count (Mesh.latency_of_class mesh c))
      in
      let hops = (H.count h, H.sum h, H.max_value h) in
      let int4 = Alcotest.(pair (pair int int) (pair int int)) in
      let as_pairs = List.map (fun (a, b, c, d) -> ((a, b), (c, d))) in
      Alcotest.(check (list int4)) (name "router perf") (as_pairs pin.routers)
        (as_pairs routers);
      let six (a, b, c, d, e, f) = [ a; b; c; d; e; f ] in
      Alcotest.(check (list int)) (name "latency") (six pin.lat) (six lat);
      Alcotest.(check (float 0.0)) (name "latency stddev") pin.lat_sd (H.stddev l);
      Alcotest.(check (list int)) (name "latency per class") pin.lat_cls lat_cls;
      let three (a, b, c) = [ a; b; c ] in
      Alcotest.(check (list int)) (name "hops") (three pin.hops) (three hops))
    noc_pins

(* ------------------------------------------------------------------ *)
(* QoS *)

let qos_victim_latency ~qos =
  (* A high-priority flow crosses a column saturated by low-priority
     traffic; return its p99 latency. *)
  let sim = Sim.create () in
  let mesh = mk_mesh ~cols:4 ~rows:4 ~qos sim in
  let rng = Rng.create ~seed:21 in
  (* Background: low class flood into a hotspot. *)
  let _bg =
    Traffic.start mesh ~rng ~pattern:(Traffic.Hotspot (Coord.make 2 2, 0.8))
      ~rate:0.25 ~payload_bytes:128 ~cls:0 ~payload:0 ()
  in
  (* Foreground: periodic small class-1 packets along the same paths. *)
  Sim.every sim 50 (fun () ->
      Mesh.send mesh ~src:(Coord.make 0 2) ~dst:(Coord.make 3 2) ~cls:1
        ~payload_bytes:16 1);
  Sim.run_for sim 20_000;
  Stats.Histogram.percentile (Mesh.latency_of_class mesh 1) 99.0

let test_qos_priority_helps () =
  let without = qos_victim_latency ~qos:false in
  let with_q = qos_victim_latency ~qos:true in
  Alcotest.(check bool)
    (Printf.sprintf "qos p99 %d <= no-qos p99 %d" with_q without)
    true (with_q <= without)

(* ------------------------------------------------------------------ *)
(* Traffic patterns *)

let test_traffic_destinations_in_bounds () =
  let rng = Rng.create ~seed:31 in
  let patterns =
    [ Traffic.Uniform; Traffic.Hotspot (Coord.make 1 1, 0.5); Traffic.Transpose;
      Traffic.Bit_complement; Traffic.Neighbor ]
  in
  List.iter
    (fun p ->
      for i = 0 to 199 do
        let src = Coord.of_index ~cols:4 (i mod 16) in
        let d = Traffic.destination rng p ~cols:4 ~rows:4 ~src in
        if d.Coord.x < 0 || d.Coord.x >= 4 || d.Coord.y < 0 || d.Coord.y >= 4 then
          Alcotest.failf "%s out of bounds" (Traffic.pattern_to_string p)
      done)
    patterns

let test_traffic_hotspot_bias () =
  let rng = Rng.create ~seed:32 in
  let hot = Coord.make 3 3 in
  let hits = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    let d =
      Traffic.destination rng (Traffic.Hotspot (hot, 0.7)) ~cols:4 ~rows:4
        ~src:(Coord.make 0 0)
    in
    if Coord.equal d hot then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "~70% to hotspot" true (frac > 0.6 && frac < 0.8)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "noc"
    [
      ( "basics",
        [
          Alcotest.test_case "port opposite" `Quick test_port_opposite;
          Alcotest.test_case "coord roundtrip" `Quick test_coord_roundtrip;
          Alcotest.test_case "coord hops" `Quick test_coord_hops;
          Alcotest.test_case "flits for" `Quick test_flits_for;
          qc prop_flits_positive;
        ] );
      ( "routing",
        [
          Alcotest.test_case "xy" `Quick test_routing_xy;
          Alcotest.test_case "yx" `Quick test_routing_yx;
          qc prop_routing_progress;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "single delivery" `Quick test_mesh_single_delivery;
          Alcotest.test_case "active columns" `Quick test_mesh_active_columns;
          Alcotest.test_case "latency ~ hops" `Quick test_mesh_latency_scales_with_hops;
          Alcotest.test_case "serialization latency" `Quick test_mesh_serialization_latency;
          Alcotest.test_case "all pairs delivery" `Quick test_mesh_all_pairs_delivery;
          Alcotest.test_case "wormhole contiguity" `Quick test_mesh_wormhole_contiguity;
          Alcotest.test_case "heavy load no loss" `Quick test_mesh_heavy_random_load_no_loss;
          Alcotest.test_case "1x1 degenerate" `Quick test_mesh_1x1;
          Alcotest.test_case "yx delivers" `Quick test_mesh_yx_routing_delivers;
          qc prop_mesh_always_drains;
        ] );
      ("pinned", [ Alcotest.test_case "router perf and histograms" `Quick test_noc_pinned_model ]);
      ("qos", [ Alcotest.test_case "priority helps" `Slow test_qos_priority_helps ]);
      ( "traffic",
        [
          Alcotest.test_case "dst in bounds" `Quick test_traffic_destinations_in_bounds;
          Alcotest.test_case "hotspot bias" `Quick test_traffic_hotspot_bias;
        ] );
    ]
