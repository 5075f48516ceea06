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
     buffer depths, routing orders and payload sizes, every injected
     packet is eventually delivered once injection stops. *)
  QCheck.Test.make ~name:"random configs always drain (no deadlock/loss)" ~count:40
    QCheck.(
      quad
        (pair (int_range 1 5) (int_range 1 5))  (* cols, rows *)
        (pair (int_range 1 3) (int_range 1 8))  (* vcs, depth *)
        (pair bool (int_range 0 600))  (* yx routing, payload *)
        (int_range 1 60) (* packets *))
    (fun ((cols, rows), (vcs, depth), (yx, payload_bytes), npkts) ->
      QCheck.assume (cols * rows > 1);
      let sim = Sim.create () in
      let mesh : int Mesh.t =
        Mesh.create sim
          { Mesh.cols; rows; vcs; depth; flit_bytes = 16;
            routing = (if yx then Routing.Yx else Routing.Xy); qos = false }
      in
      let received = ref 0 in
      List.iter (fun c -> Mesh.set_receiver mesh c (fun _ -> incr received))
        (Mesh.coords mesh);
      let rng = Rng.create ~seed:(cols + (7 * rows) + (31 * npkts)) in
      let tiles = Array.of_list (Mesh.coords mesh) in
      let sent = ref 0 in
      for _ = 1 to npkts do
        let src = Rng.pick rng tiles and dst = Rng.pick rng tiles in
        if not (Coord.equal src dst) then begin
          incr sent;
          Mesh.send mesh ~src ~dst ~cls:(Rng.int rng vcs) ~payload_bytes 0
        end
      done;
      Sim.run_for sim ((npkts * 800) + 5_000);
      !received = !sent && Mesh.tx_backlog mesh = 0)

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
      ("qos", [ Alcotest.test_case "priority helps" `Slow test_qos_priority_helps ]);
      ( "traffic",
        [
          Alcotest.test_case "dst in bounds" `Quick test_traffic_destinations_in_bounds;
          Alcotest.test_case "hotspot bias" `Quick test_traffic_hotspot_bias;
        ] );
    ]
