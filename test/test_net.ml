(* Tests for the network substrate: frames + FCS, links, the two MAC
   generations and the portable adapter, the learning switch, the RPC
   envelope, and clients. *)

module Sim = Apiary_engine.Sim
module Frame = Apiary_net.Frame
module Link = Apiary_net.Link
module Mac = Apiary_net.Mac
module Switch = Apiary_net.Switch
module Netproto = Apiary_net.Netproto

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Frames *)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame serialize/parse roundtrip" ~count:300
    QCheck.(triple (int_bound 0xFFFFFF) (int_bound 0xFFFFFF) (string_of_size Gen.(int_range 0 1500)))
    (fun (dst, src, payload) ->
      let f = Frame.make ~dst ~src (Bytes.of_string payload) in
      match Frame.parse (Frame.serialize f) with
      | Ok f' -> f' = f
      | Error _ -> false)

(* Decoder fuzzing: random bytes, and every truncation of a valid
   encoding, must come back as [Error] — never an exception. *)
let truncations b = List.init (Bytes.length b) (fun n -> Bytes.sub b 0 n)

let frame_wire payload =
  Frame.serialize (Frame.make ~dst:0x0A0B0C ~src:0x0D0E0F (Bytes.of_string payload))

let prop_frame_parse_fuzz =
  QCheck.Test.make ~name:"frame parse never raises on fuzz" ~count:300
    QCheck.(pair (string_of_size Gen.(int_range 0 200)) (string_of_size Gen.(int_range 0 100)))
    (fun (junk, payload) ->
      (* Junk with a valid FCS appended gets past the checksum, so the
         length-field check sees garbage too. *)
      let body = Bytes.of_string junk in
      let fcs = Bytes.create 4 in
      Bytes.set_int32_be fcs 0 (Apiary_engine.Checksum.crc32 body);
      let no_raise b = match Frame.parse b with Ok _ | Error _ -> true in
      no_raise body
      && no_raise (Bytes.cat body fcs)
      && List.for_all
           (fun b -> Result.is_error (Frame.parse b))
           (truncations (frame_wire payload)))

let test_frame_fcs_detects_corruption () =
  let f = Frame.make ~dst:1 ~src:2 (b "payload bytes here for the fcs") in
  let wire = Frame.serialize f in
  Bytes.set wire 20 (Char.chr (Char.code (Bytes.get wire 20) lxor 0x40));
  match Frame.parse wire with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted frame accepted"

let test_frame_mtu () =
  Alcotest.check_raises "mtu" (Invalid_argument "Frame.make: payload exceeds MTU")
    (fun () -> ignore (Frame.make ~dst:1 ~src:2 (Bytes.create 1501)))

let test_frame_padding () =
  let f = Frame.make ~dst:1 ~src:2 (b "x") in
  (* 16B header + 46B padded payload + 4B FCS *)
  Alcotest.(check int) "padded wire bytes" 66 (Bytes.length (Frame.serialize f));
  match Frame.parse (Frame.serialize f) with
  | Ok f' -> Alcotest.(check string) "unpadded payload" "x" (Bytes.to_string f'.Frame.payload)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Links *)

let test_link_delivers_with_latency () =
  let sim = Sim.create () in
  let link = Link.create sim ~bytes_per_cycle:5.0 ~prop_cycles:100 in
  let got_at = ref (-1) in
  Link.on_recv link Link.B (fun _ -> got_at := Sim.now sim);
  Link.send link ~from:Link.A (Frame.make ~dst:1 ~src:2 (b "hello"));
  Sim.run_for sim 1000;
  (* wire size 86 bytes at 5 B/cy = 18 cycles + 100 prop. *)
  Alcotest.(check bool)
    (Printf.sprintf "arrival at %d" !got_at)
    true
    (!got_at >= 115 && !got_at <= 125)

let test_link_serializes_back_to_back () =
  let sim = Sim.create () in
  let link = Link.create sim ~bytes_per_cycle:1.0 ~prop_cycles:0 in
  let arrivals = ref [] in
  Link.on_recv link Link.B (fun _ -> arrivals := Sim.now sim :: !arrivals);
  let f = Frame.make ~dst:1 ~src:2 (Bytes.create 100) in
  Link.send link ~from:Link.A f;
  Link.send link ~from:Link.A f;
  Sim.run_for sim 2000;
  match List.rev !arrivals with
  | [ a; bb ] ->
    Alcotest.(check bool)
      (Printf.sprintf "gap %d-%d = wire size" a bb)
      true
      (bb - a = Frame.wire_size f)
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_drops_corrupt () =
  let sim = Sim.create () in
  let link = Link.create sim ~bytes_per_cycle:5.0 ~prop_cycles:10 in
  let got = ref 0 in
  Link.on_recv link Link.B (fun _ -> incr got);
  Link.set_corrupt_next link ~from:Link.A;
  Link.send link ~from:Link.A (Frame.make ~dst:1 ~src:2 (b "doomed"));
  Sim.run_for sim 200;
  Alcotest.(check int) "dropped" 0 !got;
  Alcotest.(check int) "counted" 1 (Link.frames_dropped link)

(* ------------------------------------------------------------------ *)
(* MACs *)

let test_teng_requires_reset () =
  let sim = Sim.create () in
  let link = Link.create sim ~bytes_per_cycle:5.0 ~prop_cycles:10 in
  let mac = Mac.Teng.create sim link Link.A in
  Alcotest.(check bool) "tx before reset fails" false
    (Mac.Teng.submit mac (Frame.make ~dst:1 ~src:2 (b "early")));
  Mac.Teng.reset mac;
  Alcotest.(check bool) "not ready during reset" false (Mac.Teng.ready mac);
  Sim.run_for sim 60;
  Alcotest.(check bool) "ready after reset" true (Mac.Teng.ready mac);
  Alcotest.(check bool) "tx ok" true
    (Mac.Teng.submit mac (Frame.make ~dst:1 ~src:2 (b "now")))

let test_hundredg_reset_sequence () =
  let sim = Sim.create () in
  let link = Link.create sim ~bytes_per_cycle:50.0 ~prop_cycles:10 in
  let mac = Mac.Hundredg.create sim link Link.A in
  (* Violate the hold time: stays down. *)
  Mac.Hundredg.assert_reset mac;
  Sim.run_for sim 10;
  Mac.Hundredg.release_reset mac;
  Alcotest.(check bool) "early release -> down" false (Mac.Hundredg.ready mac);
  (* Proper sequence. *)
  Mac.Hundredg.assert_reset mac;
  Sim.run_for sim 150;
  Mac.Hundredg.release_reset mac;
  Alcotest.(check bool) "up" true (Mac.Hundredg.ready mac)

let test_hundredg_ring_backpressure () =
  let sim = Sim.create () in
  let link = Link.create sim ~bytes_per_cycle:1.0 ~prop_cycles:0 in
  let mac = Mac.Hundredg.create sim link Link.A in
  Mac.Hundredg.assert_reset mac;
  Sim.run_for sim 150;
  Mac.Hundredg.release_reset mac;
  let f = Frame.make ~dst:1 ~src:2 (Bytes.create 1000) in
  let accepted = ref 0 in
  for _ = 1 to 40 do
    if Mac.Hundredg.post_tx mac f then incr accepted
  done;
  Alcotest.(check bool)
    (Printf.sprintf "ring limits accepted=%d" !accepted)
    true (!accepted <= 33)

let test_portable_adapter_both_generations () =
  let run gen =
    let sim = Sim.create () in
    let link = Link.create sim ~bytes_per_cycle:5.0 ~prop_cycles:10 in
    let a = Mac.create sim gen link Link.A in
    let bmac = Mac.create sim gen link Link.B in
    let got = ref None in
    Mac.set_rx bmac (fun f -> got := Some (Bytes.to_string f.Frame.payload));
    (* Same portable code for both generations. *)
    Sim.after sim 200 (fun () ->
        ignore (Mac.send a (Frame.make ~dst:9 ~src:8 (b "portable"))));
    Sim.run_for sim 1000;
    !got
  in
  Alcotest.(check (option string)) "10G" (Some "portable") (run Mac.Gen_10g);
  Alcotest.(check (option string)) "100G" (Some "portable") (run Mac.Gen_100g)

(* ------------------------------------------------------------------ *)
(* Switch *)

let mk_host sim switch ~port ~addr =
  let link = Link.create sim ~bytes_per_cycle:5.0 ~prop_cycles:10 in
  Switch.attach switch ~port link Link.B;
  let mac = Mac.create sim Mac.Gen_10g link Link.A in
  (mac, addr)

let test_switch_learns_and_forwards () =
  let sim = Sim.create () in
  let sw = Switch.create sim ~nports:4 ~latency:50 in
  let m1, a1 = mk_host sim sw ~port:0 ~addr:0x11 in
  let m2, a2 = mk_host sim sw ~port:1 ~addr:0x22 in
  let m3, _ = mk_host sim sw ~port:2 ~addr:0x33 in
  let got2 = ref 0 and got3 = ref 0 in
  Mac.set_rx m2 (fun _ -> incr got2);
  Mac.set_rx m3 (fun _ -> incr got3);
  Sim.after sim 200 (fun () ->
      (* First frame to unknown dst: floods (reaching both). *)
      ignore (Mac.send m1 (Frame.make ~dst:a2 ~src:a1 (b "one"))));
  Sim.after sim 1000 (fun () ->
      (* m2 replies: the switch learns both sides. *)
      ignore (Mac.send m2 (Frame.make ~dst:a1 ~src:a2 (b "two"))));
  Sim.after sim 2000 (fun () ->
      (* Now unicast: m3 must not see it. *)
      ignore (Mac.send m1 (Frame.make ~dst:a2 ~src:a1 (b "three"))));
  Sim.run_for sim 4000;
  Alcotest.(check int) "m2 got both" 2 !got2;
  Alcotest.(check int) "m3 saw only the flood" 1 !got3;
  Alcotest.(check bool) "learned" true (Switch.table_size sw >= 2)

(* ------------------------------------------------------------------ *)
(* Netproto *)

let prop_netproto_roundtrip =
  QCheck.Test.make ~name:"netproto roundtrip" ~count:300
    QCheck.(quad (int_bound 1_000_000) (string_of_size Gen.(int_range 1 40))
              (int_bound 100_000) (string_of_size Gen.(int_range 0 800)))
    (fun (req_id, service, op, body) ->
      let body = Bytes.of_string body in
      let req = { Netproto.req_id; service; op; body } in
      let rsp = { Netproto.rsp_id = req_id; status = Netproto.Ok_resp; body } in
      Netproto.decode_request (Netproto.encode_request req) = Ok req
      && Netproto.decode_response (Netproto.encode_response rsp) = Ok rsp)

let netproto_fuzz_arb =
  QCheck.(pair (string_of_size Gen.(int_range 0 100)) (int_bound 1_000))

let prop_decode_request_fuzz =
  QCheck.Test.make ~name:"decode_request never raises on fuzz" ~count:300
    netproto_fuzz_arb (fun (junk, k) ->
      let b = Bytes.of_string junk in
      let off = k mod (Bytes.length b + 1) in
      let req = { Netproto.req_id = k; service = "svc"; op = 7; body = b } in
      (match Netproto.decode_request ~off b with Ok _ | Error _ -> true)
      && List.for_all
           (fun t ->
             (* The body carries no length: only cuts inside the header
                and service name (10 + 3 bytes) must be rejected. *)
             match Netproto.decode_request t with
             | Error _ -> true
             | Ok _ -> Bytes.length t >= 13)
           (truncations (Netproto.encode_request req)))

let prop_decode_response_fuzz =
  QCheck.Test.make ~name:"decode_response never raises on fuzz" ~count:300
    netproto_fuzz_arb (fun (junk, k) ->
      let b = Bytes.of_string junk in
      let off = k mod (Bytes.length b + 1) in
      let rsp = { Netproto.rsp_id = k; status = Netproto.Remote_error; body = b } in
      (match Netproto.decode_response ~off b with Ok _ | Error _ -> true)
      && List.for_all
           (fun t ->
             match Netproto.decode_response t with
             | Error _ -> true
             | Ok _ -> Bytes.length t >= 6)
           (truncations (Netproto.encode_response rsp)))

let test_netproto_rejects_mixups () =
  let req = { Netproto.req_id = 1; service = "s"; op = 2; body = b "x" } in
  (match Netproto.decode_response (Netproto.encode_request req) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request decoded as response")


(* ------------------------------------------------------------------ *)
(* Client load generators (driven against a zero-logic reflector) *)

let mk_reflector sim sw ~port ~addr =
  (* A host that echoes any request back as an OK response. *)
  let mac, a = mk_host sim sw ~port ~addr in
  Mac.set_rx mac (fun f ->
      match Netproto.decode_request f.Frame.payload with
      | Error _ -> ()
      | Ok req ->
        let rsp =
          { Netproto.rsp_id = req.Netproto.req_id; status = Netproto.Ok_resp;
            body = req.Netproto.body }
        in
        ignore (Mac.send mac (Frame.make ~dst:f.Frame.src ~src:a
                                (Netproto.encode_response rsp))));
  a

let test_client_closed_loop_keeps_window () =
  let sim = Apiary_engine.Sim.create () in
  let sw = Switch.create sim ~nports:4 ~latency:50 in
  let server = mk_reflector sim sw ~port:0 ~addr:0xA in
  let cmac, caddr = mk_host sim sw ~port:1 ~addr:0xB in
  let client = Apiary_net.Client.create sim ~mac:cmac ~my_mac:caddr ~server_mac:server in
  Apiary_net.Client.start_closed client
    { Apiary_net.Client.service = "echo"; op = 0; gen = (fun _ -> b "q") }
    ~concurrency:3;
  Sim.run_for sim 50_000;
  Apiary_net.Client.stop client;
  let issued = Apiary_net.Client.issued client in
  let completed = Apiary_net.Client.completed client in
  Alcotest.(check bool) "progress" true (completed > 50);
  (* Closed loop: in-flight never exceeds the window. *)
  Alcotest.(check bool)
    (Printf.sprintf "window bound (%d issued, %d completed)" issued completed)
    true
    (issued - completed <= 3)

let test_client_open_loop_rate () =
  let sim = Apiary_engine.Sim.create () in
  let sw = Switch.create sim ~nports:4 ~latency:50 in
  let server = mk_reflector sim sw ~port:0 ~addr:0xA in
  let cmac, caddr = mk_host sim sw ~port:1 ~addr:0xB in
  let client = Apiary_net.Client.create sim ~mac:cmac ~my_mac:caddr ~server_mac:server in
  Apiary_net.Client.start_open client
    { Apiary_net.Client.service = "echo"; op = 0; gen = (fun _ -> b "q") }
    ~rate:0.001;
  Sim.run_for sim 100_000;
  Apiary_net.Client.stop client;
  let issued = Apiary_net.Client.issued client in
  (* Poisson(0.001) over 100k cycles: ~100 requests. *)
  Alcotest.(check bool)
    (Printf.sprintf "open-loop rate approx (%d)" issued)
    true
    (issued > 60 && issued < 150)

(* ------------------------------------------------------------------ *)
(* Switch: bounded learning table, per-port counters, port up/down *)

let test_switch_bounded_fdb () =
  let sim = Sim.create () in
  let sw = Switch.create ~fdb_capacity:2 sim ~nports:4 ~latency:50 in
  let m0, _ = mk_host sim sw ~port:0 ~addr:0x10 in
  let _m1, a1 = mk_host sim sw ~port:1 ~addr:0x11 in
  (* One host cycles through many source MACs (a MAC-flooding attack):
     the table must stay bounded, evicting oldest-first. *)
  for i = 0 to 9 do
    Sim.after sim (200 * (i + 1)) (fun () ->
        ignore (Mac.send m0 (Frame.make ~dst:a1 ~src:(0x100 + i) (b "x"))))
  done;
  Sim.run_for sim 5_000;
  Alcotest.(check int) "table bounded" 2 (Switch.table_size sw);
  Alcotest.(check int) "capacity visible" 2 (Switch.fdb_capacity sw)

let test_switch_port_counters_and_down () =
  let sim = Sim.create () in
  let sw = Switch.create sim ~nports:4 ~latency:50 in
  let m0, a0 = mk_host sim sw ~port:0 ~addr:0x10 in
  let m1, a1 = mk_host sim sw ~port:1 ~addr:0x11 in
  let got1 = ref 0 in
  Mac.set_rx m1 (fun _ -> incr got1);
  (* Flood (unknown dst), then learned unicast both ways. *)
  Sim.after sim 100 (fun () ->
      ignore (Mac.send m0 (Frame.make ~dst:a1 ~src:a0 (b "flood"))));
  Sim.after sim 1_000 (fun () ->
      ignore (Mac.send m1 (Frame.make ~dst:a0 ~src:a1 (b "back"))));
  Sim.after sim 2_000 (fun () ->
      ignore (Mac.send m0 (Frame.make ~dst:a1 ~src:a0 (b "unicast"))));
  Sim.run_for sim 3_000;
  Alcotest.(check int) "port0 flooded" 1 (Switch.port_flooded sw ~port:0);
  Alcotest.(check int) "port0 forwarded" 1 (Switch.port_forwarded sw ~port:0);
  Alcotest.(check int) "port1 forwarded" 1 (Switch.port_forwarded sw ~port:1);
  Alcotest.(check int) "no drops yet" 0 (Switch.frames_dropped sw);
  (* Down the egress port: the unicast is dropped and attributed to the
     ingress port; the receiver sees nothing new. *)
  Switch.set_port_up sw ~port:1 false;
  Alcotest.(check bool) "port reads down" false (Switch.port_up sw ~port:1);
  let before = !got1 in
  Sim.after sim 100 (fun () ->
      ignore (Mac.send m0 (Frame.make ~dst:a1 ~src:a0 (b "to the dead"))));
  Sim.run_for sim 2_000;
  Alcotest.(check int) "receiver silent" before !got1;
  Alcotest.(check int) "drop counted" 1 (Switch.frames_dropped sw);
  Alcotest.(check int) "attributed to ingress" 1 (Switch.port_dropped sw ~port:0)

(* ------------------------------------------------------------------ *)
(* Netsvc outbound error paths (driven board-to-board: two full Apiary
   boards on one switch, callers using Netsvc.remote_request) *)

module Board = Apiary_apps.Board
module Netsvc = Apiary_net.Netsvc
module Kernel = Apiary_core.Kernel
module Shell = Apiary_core.Shell
module Accels = Apiary_accel.Accels

(* Two boards on one ToR switch; returns (sim, board_a, board_b). *)
let mk_two_boards () =
  let sim = Sim.create () in
  let a = Board.create sim in
  let bd =
    Board.create sim ~attach:(a.Board.switch, 1) ~mac_addr:0x02_0000_0B0001
  in
  (sim, a, bd)

let with_board_tile board ~delay f =
  match Board.user_tiles board with
  | tile :: _ ->
    Kernel.install board.Board.kernel ~tile
      (Shell.behavior "driver" ~on_boot:(fun sh ->
           Sim.after (Shell.sim sh) delay (fun () -> f sh)))
  | [] -> Alcotest.fail "no free tile"

let test_netsvc_outbound_unknown_service () =
  let sim, a, bd = mk_two_boards () in
  let status = ref None in
  with_board_tile a ~delay:2_000 (fun sh ->
      Shell.connect sh ~service:"net" (fun r ->
          match r with
          | Error _ -> ()
          | Ok net ->
            Netsvc.remote_request sh net ~dst_mac:bd.Board.fpga_mac_addr
              ~service:"nope" ~op:1 (b "q") (fun r ->
                match r with
                | Ok rsp -> status := Some rsp.Netproto.status
                | Error _ -> ())));
  Sim.run_for sim 100_000;
  (match !status with
  | Some Netproto.Service_unavailable -> ()
  | Some _ -> Alcotest.fail "expected Service_unavailable"
  | None -> Alcotest.fail "no response");
  Alcotest.(check bool) "remote board counted unavailable" true
    (bd.Board.net_stats.Netsvc.unavailable >= 1)

let test_netsvc_malformed_frame_counted () =
  let sim = Sim.create () in
  let board = Board.create sim in
  let mac, addr = Board.add_client_port board ~port:1 () in
  Sim.after sim 2_000 (fun () ->
      ignore
        (Mac.send mac
           (Frame.make ~dst:board.Board.fpga_mac_addr ~src:addr
              (b "not a netproto frame at all"))));
  Sim.run_for sim 50_000;
  Alcotest.(check int) "bad frame counted" 1
    board.Board.net_stats.Netsvc.bad_frames

let test_netsvc_concurrent_reply_matching () =
  let sim, a, bd = mk_two_boards () in
  (* Echo service on board B; board A issues 4 overlapping outbound
     calls with distinct bodies — each callback must get its own body
     back despite all four sharing the network tile's pending table. *)
  (match Board.user_tiles bd with
  | tile :: _ ->
    Kernel.install bd.Board.kernel ~tile (Accels.echo ~service:"mirror" ())
  | [] -> Alcotest.fail "no tile on board B");
  let ok = ref 0 and wrong = ref 0 in
  with_board_tile a ~delay:3_000 (fun sh ->
      Shell.connect sh ~service:"net" (fun r ->
          match r with
          | Error _ -> ()
          | Ok net ->
            for i = 0 to 3 do
              let body = Bytes.of_string (Printf.sprintf "payload-%d" i) in
              Netsvc.remote_request sh net ~dst_mac:bd.Board.fpga_mac_addr
                ~service:"mirror" ~op:Accels.op_echo body (fun r ->
                  match r with
                  | Ok rsp when rsp.Netproto.status = Netproto.Ok_resp ->
                    if Bytes.equal rsp.Netproto.body body then incr ok
                    else incr wrong
                  | _ -> ())
            done));
  Sim.run_for sim 200_000;
  Alcotest.(check int) "no cross-matched replies" 0 !wrong;
  Alcotest.(check int) "all four matched" 4 !ok;
  Alcotest.(check bool) "outbound counted" true
    (a.Board.net_stats.Netsvc.outbound >= 4)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          qc prop_frame_roundtrip;
          qc prop_frame_parse_fuzz;
          Alcotest.test_case "fcs" `Quick test_frame_fcs_detects_corruption;
          Alcotest.test_case "mtu" `Quick test_frame_mtu;
          Alcotest.test_case "padding" `Quick test_frame_padding;
        ] );
      ( "link",
        [
          Alcotest.test_case "latency" `Quick test_link_delivers_with_latency;
          Alcotest.test_case "serialization" `Quick test_link_serializes_back_to_back;
          Alcotest.test_case "drops corrupt" `Quick test_link_drops_corrupt;
        ] );
      ( "mac",
        [
          Alcotest.test_case "10G reset" `Quick test_teng_requires_reset;
          Alcotest.test_case "100G reset sequence" `Quick test_hundredg_reset_sequence;
          Alcotest.test_case "100G ring" `Quick test_hundredg_ring_backpressure;
          Alcotest.test_case "portable adapter" `Quick test_portable_adapter_both_generations;
        ] );
      ( "switch",
        [
          Alcotest.test_case "learn+forward" `Quick test_switch_learns_and_forwards;
          Alcotest.test_case "bounded fdb" `Quick test_switch_bounded_fdb;
          Alcotest.test_case "port counters + down" `Quick
            test_switch_port_counters_and_down;
        ] );
      ( "netsvc",
        [
          Alcotest.test_case "outbound unknown service" `Quick
            test_netsvc_outbound_unknown_service;
          Alcotest.test_case "malformed frame counted" `Quick
            test_netsvc_malformed_frame_counted;
          Alcotest.test_case "concurrent reply matching" `Quick
            test_netsvc_concurrent_reply_matching;
        ] );
      ( "client",
        [
          Alcotest.test_case "closed loop window" `Quick test_client_closed_loop_keeps_window;
          Alcotest.test_case "open loop rate" `Quick test_client_open_loop_rate;
        ] );
      ( "netproto",
        [
          qc prop_netproto_roundtrip;
          qc prop_decode_request_fuzz;
          qc prop_decode_response_fuzz;
          Alcotest.test_case "mixups" `Quick test_netproto_rejects_mixups;
        ] );
    ]
