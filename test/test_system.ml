(* System-level integration: a full board (client hosts -> ToR switch ->
   MAC -> network service -> NoC -> accelerators) end to end, the
   host-mediated baseline, the resource/area model, and the wiring
   scalability accounting. *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Rng = Apiary_engine.Rng
module Kernel = Apiary_core.Kernel
module Monitor = Apiary_core.Monitor
module Shell = Apiary_core.Shell
module Kv = Apiary_accel.Kv
module Accels = Apiary_accel.Accels
module Client = Apiary_net.Client
module Mac = Apiary_net.Mac
module Netproto = Apiary_net.Netproto
module Board = Apiary_apps.Board
module Video_pipeline = Apiary_apps.Video_pipeline
module Hosted = Apiary_baseline.Hosted
module Remote_service = Apiary_baseline.Remote_service
module Netsvc = Apiary_net.Netsvc
module Shell2 = Apiary_core.Shell
module Qserver = Apiary_baseline.Qserver
module Energy = Apiary_baseline.Energy
module Direct_wired = Apiary_baseline.Direct_wired
module Parts = Apiary_resource.Parts
module Area = Apiary_resource.Area
module Floorplan = Apiary_resource.Floorplan

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Board end-to-end *)

let test_board_echo_end_to_end () =
  let sim = Sim.create () in
  let board = Board.create sim in
  (match Board.user_tiles board with
  | t1 :: _ -> Kernel.install board.Board.kernel ~tile:t1 (Accels.echo ())
  | [] -> Alcotest.fail "no tiles");
  let client = Board.client board ~port:1 () in
  let good = ref 0 in
  Client.on_response client (fun rsp ->
      if rsp.Netproto.status = Netproto.Ok_resp
         && Bytes.to_string rsp.Netproto.body = "ping-body"
      then incr good);
  Sim.after sim 2000 (fun () ->
      Client.start_closed client
        { Client.service = "echo"; op = Accels.op_echo; gen = (fun _ -> b "ping-body") }
        ~concurrency:2);
  Sim.run_for sim 60_000;
  Client.stop client;
  Alcotest.(check bool)
    (Printf.sprintf "completed %d, verified %d" (Client.completed client) !good)
    true
    (Client.completed client > 20 && !good = Client.completed client);
  Alcotest.(check int) "no errors" 0 (Client.errors client)

let test_board_kv_over_network () =
  let sim = Sim.create () in
  let board = Board.create sim in
  let kv_behavior, _ = Kv.behavior () in
  (match Board.user_tiles board with
  | t1 :: _ -> Kernel.install board.Board.kernel ~tile:t1 kv_behavior
  | [] -> Alcotest.fail "no tiles");
  let client = Board.client board ~port:1 () in
  (* Alternate PUT/GET on one key and verify GET bodies. *)
  let value = "network value 123" in
  let verified = ref 0 in
  Client.on_response client (fun rsp ->
      if rsp.Netproto.status = Netproto.Ok_resp then
        match Kv.Proto.decode_resp rsp.Netproto.body with
        | Ok (Kv.Proto.Found v) when Bytes.to_string v = value -> incr verified
        | _ -> ());
  let gen n =
    if n mod 2 = 1 then Kv.Proto.encode_req (Kv.Proto.Put ("key", b value))
    else Kv.Proto.encode_req (Kv.Proto.Get "key")
  in
  Sim.after sim 2000 (fun () ->
      Client.start_closed client
        { Client.service = "kv"; op = Kv.Proto.opcode; gen }
        ~concurrency:1);
  Sim.run_for sim 150_000;
  Client.stop client;
  Alcotest.(check bool)
    (Printf.sprintf "gets verified: %d" !verified)
    true (!verified > 10)

let test_board_unknown_service_unavailable () =
  let sim = Sim.create () in
  let board = Board.create sim in
  let client = Board.client board ~port:1 () in
  let unavailable = ref 0 in
  Client.on_response client (fun rsp ->
      if rsp.Netproto.status = Netproto.Service_unavailable then incr unavailable);
  Sim.after sim 2000 (fun () ->
      Client.start_closed client
        { Client.service = "ghost"; op = 0; gen = (fun _ -> b "x") }
        ~concurrency:1);
  Sim.run_for sim 80_000;
  Client.stop client;
  Alcotest.(check bool) "unavailable responses" true (!unavailable >= 1)

let test_board_video_pipeline_end_to_end () =
  let sim = Sim.create () in
  let board = Board.create sim in
  (match Board.user_tiles board with
  | enc :: comp :: _ ->
    Video_pipeline.install board.Board.kernel ~encoder_tile:enc ~compressor_tile:comp
  | _ -> Alcotest.fail "need tiles");
  let rng = Rng.create ~seed:77 in
  let chunk = Rng.bytes_compressible rng 1024 ~redundancy:0.8 in
  let client = Board.client board ~port:1 () in
  let ok = ref 0 and bad = ref 0 in
  Client.on_response client (fun rsp ->
      if rsp.Netproto.status = Netproto.Ok_resp then
        match Video_pipeline.verify_output ~original:chunk rsp.Netproto.body with
        | Ok () -> incr ok
        | Error _ -> incr bad);
  Sim.after sim 3000 (fun () ->
      Client.start_closed client
        { Client.service = "vpipe"; op = Accels.op_encode; gen = (fun _ -> chunk) }
        ~concurrency:1);
  Sim.run_for sim 200_000;
  Client.stop client;
  Alcotest.(check int) "no bad outputs" 0 !bad;
  Alcotest.(check bool) (Printf.sprintf "verified %d chunks" !ok) true (!ok > 3)

let test_board_10g_vs_100g_same_code () =
  (* The same application stack over both MAC generations: portability. *)
  let run gen =
    let sim = Sim.create () in
    let board = Board.create ~mac_gen:gen sim in
    (match Board.user_tiles board with
    | t1 :: _ -> Kernel.install board.Board.kernel ~tile:t1 (Accels.echo ())
    | [] -> ());
    let client = Board.client board ~port:1 () in
    Sim.after sim 2000 (fun () ->
        Client.start_closed client
          { Client.service = "echo"; op = Accels.op_echo; gen = (fun _ -> Bytes.create 1024) }
          ~concurrency:4);
    Sim.run_for sim 100_000;
    Client.stop client;
    (Client.completed client, Stats.Histogram.mean (Client.latency client))
  in
  let n10, lat10 = run Mac.Gen_10g in
  let n100, lat100 = run Mac.Gen_100g in
  Alcotest.(check bool) "both serve" true (n10 > 20 && n100 > 20);
  Alcotest.(check bool)
    (Printf.sprintf "100G (%.0f) faster than 10G (%.0f)" lat100 lat10)
    true (lat100 < lat10)


let test_outbound_remote_call () =
  (* An accelerator tile calls a service hosted on a remote CPU through
     the network tile (paper 6-Q3). *)
  let sim = Sim.create () in
  let board = Board.create sim in
  let remote_mac, remote_addr = Board.add_client_port board ~port:2 () in
  let _remote =
    Remote_service.create sim ~mac:remote_mac ~my_mac:remote_addr
      ~handler:(fun ~service ~op body ->
        ignore op;
        Bytes.of_string (Printf.sprintf "%s says %s" service (Bytes.to_string body)))
      ()
  in
  let got = ref None in
  (match Board.user_tiles board with
  | t :: _ ->
    Kernel.install board.Board.kernel ~tile:t
      (Shell.behavior "caller" ~on_boot:(fun sh ->
           Sim.after (Shell.sim sh) 2_000 (fun () ->
               Shell.connect sh ~service:"net" (fun r ->
                   match r with
                   | Error _ -> ()
                   | Ok net ->
                     Netsvc.remote_request sh net ~dst_mac:remote_addr
                       ~service:"quota" ~op:7 (b "hello?") (fun r ->
                         match r with
                         | Ok rsp -> got := Some (Bytes.to_string rsp.Netproto.body)
                         | Error e -> got := Some (Shell.rpc_error_to_string e))))))
  | [] -> ());
  Sim.run_for sim 60_000;
  Alcotest.(check (option string)) "remote response relayed"
    (Some "quota says hello?") !got

let test_remote_service_unreachable_times_out () =
  (* Outbound call to a MAC nobody owns: the net service's relay request
     times out at the caller. *)
  let sim = Sim.create () in
  let board = Board.create sim in
  let got = ref None in
  (match Board.user_tiles board with
  | t :: _ ->
    Kernel.install board.Board.kernel ~tile:t
      (Shell.behavior "caller" ~on_boot:(fun sh ->
           Sim.after (Shell.sim sh) 2_000 (fun () ->
               Shell.connect sh ~service:"net" (fun r ->
                   match r with
                   | Error _ -> ()
                   | Ok net ->
                     Netsvc.remote_request sh net ~dst_mac:0xDEAD ~service:"x"
                       ~op:0 Bytes.empty (fun r ->
                         match r with
                         | Error Shell.Timeout -> got := Some true
                         | _ -> got := Some false)))))
  | [] -> ());
  Sim.run_for sim 120_000;
  Alcotest.(check (option bool)) "timed out" (Some true) !got

(* ------------------------------------------------------------------ *)
(* Hosted baseline *)

let test_hosted_serves_and_is_slower () =
  (* Direct-attached Apiary vs host-mediated: same accelerator cost model,
     same client, same switch. The hosted path must show higher latency. *)
  let direct_lat =
    let sim = Sim.create () in
    let board = Board.create sim in
    (match Board.user_tiles board with
    | t1 :: _ -> Kernel.install board.Board.kernel ~tile:t1 (Accels.echo ~cost:64 ())
    | [] -> ());
    let client = Board.client board ~port:1 () in
    Sim.after sim 2000 (fun () ->
        Client.start_closed client
          { Client.service = "echo"; op = Accels.op_echo; gen = (fun _ -> Bytes.create 256) }
          ~concurrency:1);
    Sim.run_for sim 150_000;
    Client.stop client;
    Stats.Histogram.percentile (Client.latency client) 50.0
  in
  let hosted_lat =
    let sim = Sim.create () in
    let sw = Apiary_net.Switch.create sim ~nports:4 ~latency:250 in
    let mk port =
      let link = Apiary_net.Link.create sim ~bytes_per_cycle:5.0 ~prop_cycles:125 in
      Apiary_net.Switch.attach sw ~port link Apiary_net.Link.B;
      Mac.create sim Mac.Gen_10g link Apiary_net.Link.A
    in
    let server_mac = mk 0 and client_mac = mk 1 in
    let _server =
      Hosted.create sim ~mac:server_mac ~my_mac:0xAA
        ~accel_cycles:(fun _ -> 64)
        ~handler:(fun _ body -> body)
    in
    let client = Client.create sim ~mac:client_mac ~my_mac:0xBB ~server_mac:0xAA in
    Sim.after sim 2000 (fun () ->
        Client.start_closed client
          { Client.service = "echo"; op = 0; gen = (fun _ -> Bytes.create 256) }
          ~concurrency:1);
    Sim.run_for sim 150_000;
    Client.stop client;
    Alcotest.(check bool) "hosted served" true (Client.completed client > 10);
    Stats.Histogram.percentile (Client.latency client) 50.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "hosted p50 %d > direct p50 %d" hosted_lat direct_lat)
    true
    (hosted_lat > direct_lat)

let test_qserver_fcfs_and_parallelism () =
  let sim = Sim.create () in
  let q1 = Qserver.create sim ~servers:1 in
  let q2 = Qserver.create sim ~servers:2 in
  let d1 = ref 0 and d2 = ref 0 in
  for _ = 1 to 2 do
    Qserver.submit q1 ~cycles:100 (fun () -> d1 := Sim.now sim);
    Qserver.submit q2 ~cycles:100 (fun () -> d2 := Sim.now sim)
  done;
  Sim.run_for sim 1000;
  Alcotest.(check bool) "serialized" true (!d1 >= 200);
  Alcotest.(check bool) "parallel" true (!d2 <= 110);
  Alcotest.(check int) "completions" 2 (Qserver.completed q1)

let test_energy_model_shape () =
  (* The hosted path must cost more energy per request whenever it burns
     CPU cycles, all else equal. *)
  let direct = Energy.direct_uj ~fpga_cycles:1000 ~net_bytes:512 in
  let hosted =
    Energy.hosted_uj ~cpu_cycles:2000 ~accel_cycles:1000 ~pcie_bytes:1024
      ~net_bytes:512
  in
  Alcotest.(check bool)
    (Printf.sprintf "hosted %.3f > direct %.3f uJ" hosted direct)
    true (hosted > direct);
  Alcotest.(check bool) "positive" true (direct > 0.0)

(* ------------------------------------------------------------------ *)
(* Resource model *)

let test_parts_table1_scaling () =
  let small, large = Parts.generation_scaling () in
  (* Paper: "about 50%" and "3x". *)
  Alcotest.(check bool) (Printf.sprintf "small ratio %.2f" small) true
    (small > 1.4 && small < 1.6);
  Alcotest.(check bool) (Printf.sprintf "large ratio %.2f" large) true
    (large > 4.0 && large < 4.5)

let test_area_router_scales_with_vcs () =
  let p1 = { Area.vcs = 1; depth = 4; flit_bits = 128 } in
  let p4 = { Area.vcs = 4; depth = 4; flit_bits = 128 } in
  Alcotest.(check bool) "more vcs, more area" true
    ((Area.router p4).Area.luts > (Area.router p1).Area.luts)

let test_area_monitor_nonzero_and_reasonable () =
  let m = Area.monitor ~cap_entries:256 ~service_entries:8 ~egress_depth:64 ~flit_bits:128 in
  Alcotest.(check bool)
    (Printf.sprintf "monitor %d LUTs" m.Area.luts)
    true
    (m.Area.luts > 500 && m.Area.luts < 5_000)

let test_floorplan_overhead_grows_with_tiles () =
  let noc = { Area.vcs = 2; depth = 4; flit_bits = 128 } in
  let part = Parts.vu9p in
  let f tiles =
    match Floorplan.plan ~part ~tiles ~noc ~cap_entries:256 with
    | Some p -> p.Floorplan.overhead_frac
    | None -> 1.0
  in
  Alcotest.(check bool) "monotone" true (f 4 < f 16 && f 16 < f 64);
  Alcotest.(check bool)
    (Printf.sprintf "16 tiles overhead %.3f modest" (f 16))
    true
    (f 16 < 0.25)

let test_floorplan_max_tiles_ordering () =
  let noc = { Area.vcs = 2; depth = 4; flit_bits = 128 } in
  let m part = Floorplan.max_tiles ~part ~noc ~cap_entries:256 ~min_slot_cells:50_000 in
  let small = m Parts.xc7v585t and big = m Parts.vu29p in
  Alcotest.(check bool)
    (Printf.sprintf "bigger part, more tiles (%d vs %d)" small big)
    true (big > small && small >= 1)

let test_direct_wired_scaling () =
  let d8 = Direct_wired.direct ~tiles:16 ~services:8 ~bus_bits:128 in
  let d2 = Direct_wired.direct ~tiles:16 ~services:2 ~bus_bits:128 in
  let n8 = Direct_wired.noc ~tiles:16 ~services:8 ~flit_bits:128 in
  Alcotest.(check bool) "direct grows with services" true
    (d8.Direct_wired.ports_per_tile > d2.Direct_wired.ports_per_tile);
  Alcotest.(check int) "noc constant ports" 2 n8.Direct_wired.ports_per_tile;
  Alcotest.(check int) "noc adds services free" 0 n8.Direct_wired.rewire_on_add_service

let () =
  Alcotest.run "system"
    [
      ( "board",
        [
          Alcotest.test_case "echo end-to-end" `Quick test_board_echo_end_to_end;
          Alcotest.test_case "kv over network" `Quick test_board_kv_over_network;
          Alcotest.test_case "unknown service" `Quick test_board_unknown_service_unavailable;
          Alcotest.test_case "video pipeline" `Quick test_board_video_pipeline_end_to_end;
          Alcotest.test_case "10G vs 100G" `Quick test_board_10g_vs_100g_same_code;
        ] );
      ( "remote",
        [
          Alcotest.test_case "outbound call" `Quick test_outbound_remote_call;
          Alcotest.test_case "unreachable times out" `Quick test_remote_service_unreachable_times_out;
        ] );
      ( "hosted",
        [
          Alcotest.test_case "direct faster" `Quick test_hosted_serves_and_is_slower;
          Alcotest.test_case "qserver" `Quick test_qserver_fcfs_and_parallelism;
          Alcotest.test_case "energy shape" `Quick test_energy_model_shape;
        ] );
      ( "resource",
        [
          Alcotest.test_case "table1 scaling" `Quick test_parts_table1_scaling;
          Alcotest.test_case "router area" `Quick test_area_router_scales_with_vcs;
          Alcotest.test_case "monitor area" `Quick test_area_monitor_nonzero_and_reasonable;
          Alcotest.test_case "overhead grows" `Quick test_floorplan_overhead_grows_with_tiles;
          Alcotest.test_case "max tiles" `Quick test_floorplan_max_tiles_ordering;
          Alcotest.test_case "direct wiring" `Quick test_direct_wired_scaling;
        ] );
    ]
