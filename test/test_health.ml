(* Introspection layer (E13): perf-counter blocks, the stat service,
   the watchdog health layer and the flight recorder.

   The two load-bearing properties:
   - the watchdog must coexist with the quiescence engine: an idle tile
     that the simulator fast-forwards past must NEVER trip the
     heartbeat deadline (only queued-work-without-progress does);
   - counters are architecture, not heuristics: for a fixed seed the
     per-tile blocks must be byte-identical between the engine's Seq
     and Par modes, with the watchdog running. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Kernel = Apiary_core.Kernel
module Monitor = Apiary_core.Monitor
module Shell = Apiary_core.Shell
module Statsvc = Apiary_core.Statsvc
module Health = Apiary_core.Health
module Mesh = Apiary_noc.Mesh
module Router = Apiary_noc.Router
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Rack_health = Apiary_cluster.Rack_health
module Collector = Apiary_cluster.Collector
module Shard_client = Apiary_cluster.Shard_client
module Node = Apiary_cluster.Node
module Sched = Apiary_sched.Sched
module Perf = Apiary_obs.Perf
module Flight = Apiary_obs.Flight
module Span = Apiary_obs.Span
module Critical_path = Apiary_obs.Critical_path

let mk_kernel () =
  let sim = Sim.create () in
  let cfg = { Kernel.default_config with Kernel.dram_bytes = 1 lsl 20 } in
  (sim, Kernel.create sim cfg)

(* ------------------------------------------------------------------ *)
(* Perf block *)

let test_perf_roundtrip () =
  let p = Perf.create () in
  for s = 0 to Perf.n_counters - 1 do
    Perf.add p s ((s * 7919) + 3)
  done;
  match Perf.decode (Perf.encode p) with
  | None -> Alcotest.fail "decode rejected its own encoding"
  | Some q ->
    for s = 0 to Perf.n_counters - 1 do
      Alcotest.(check int) (Perf.name s) (Perf.read p s) (Perf.read q s)
    done;
    Alcotest.(check (option reject)) "wrong length rejected" None
      (Perf.decode (Bytes.create 7))

let test_perf_merge () =
  let a = Perf.create () and b = Perf.create () in
  Perf.incr a Perf.flits;
  Perf.add b Perf.flits 4;
  Perf.set_max a Perf.occ_peak 9;
  Perf.set_max b Perf.occ_peak 3;
  Perf.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "sums flits" 5 (Perf.read b Perf.flits);
  Alcotest.(check int) "occ peak is max, not sum" 9 (Perf.read b Perf.occ_peak)

(* ------------------------------------------------------------------ *)
(* Watchdog vs quiescence *)

let test_watchdog_quiet_on_idle_fastforward () =
  let sim, k = mk_kernel () in
  let h = Health.create k in
  (* Nothing installed: after boot traffic settles the fabric is idle
     and the engine fast-forwards between watchdog sweeps. *)
  Sim.run_for sim 100_000;
  (* One sweep per period, the first at cycle [period]; the run stops
     before cycle 100,000. *)
  Alcotest.(check int) "sweeps kept firing across fast-forward"
    ((100_000 / Health.period) - 1) (Health.checks h);
  Alcotest.(check (list reject)) "no alarms on an idle board" []
    (Health.alarms h);
  (* Every sweep pulsed every tile's heartbeat counter. *)
  Alcotest.(check int) "heartbeat counter matches sweeps" (Health.checks h)
    (Perf.read (Monitor.perf (Kernel.monitor k 3)) Perf.heartbeats)

let test_watchdog_trips_on_stuck_tile () =
  let sim, k = mk_kernel () in
  let victim = 5 in
  let h = Health.create k in
  Kernel.install k ~tile:victim
    (Shell.behavior "hog"
       ~on_boot:(fun sh -> Shell.register_service sh "hog")
       ~on_message:(fun sh _ ->
         (* Livelock model: the first delivery pins the accelerator in
            compute forever, with more messages queued behind it. *)
         Shell.busy sh 1_000_000));
  Kernel.install k ~tile:1
    (Shell.behavior "driver" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 1_000 (fun () ->
             Shell.connect sh ~service:"hog" (fun r ->
                 match r with
                 | Error _ -> ()
                 | Ok conn ->
                   for _ = 1 to 5 do
                     Shell.send_data sh conn ~opcode:Accels.op_echo
                       (Bytes.make 16 'x')
                   done))));
  Sim.run_for sim 30_000;
  let stuck =
    List.filter_map
      (fun (_, a) ->
        match a with Health.Stuck_tile { tile; _ } -> Some tile | _ -> None)
      (Health.alarms h)
  in
  Alcotest.(check (list int)) "exactly the hung tile flagged" [ victim ] stuck

(* ------------------------------------------------------------------ *)
(* Stat service: in-band reads *)

let test_statsvc_in_band_read () =
  let sim, k = mk_kernel () in
  let echo_tile = 5 in
  Kernel.install k ~tile:echo_tile (Accels.echo ~cost:2 ());
  ignore (Statsvc.install k ~tile:6);
  let got_tile = ref None and got_board = ref None and bad = ref 0 in
  Kernel.install k ~tile:1
    (Shell.behavior "driver" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 1_000 (fun () ->
             Shell.connect sh ~service:"echo" (fun r ->
                 match r with
                 | Error _ -> incr bad
                 | Ok conn ->
                   let rec ping n =
                     if n > 0 then
                       Shell.request sh conn ~opcode:Accels.op_echo
                         (Bytes.make 8 'p') (fun _ -> ping (n - 1))
                     else
                       Shell.connect sh ~service:Statsvc.service_name (fun r ->
                           match r with
                           | Error _ -> incr bad
                           | Ok stat ->
                             Shell.request sh stat ~opcode:Statsvc.opcode
                               (Statsvc.encode_query (Statsvc.Tile echo_tile))
                               (fun r ->
                                 (match r with
                                 | Ok m ->
                                   got_tile :=
                                     Perf.decode m.Apiary_core.Message.payload
                                 | Error _ -> incr bad);
                                 Shell.request sh stat ~opcode:Statsvc.opcode
                                   (Statsvc.encode_query Statsvc.Board)
                                   (fun r ->
                                     match r with
                                     | Ok m ->
                                       got_board :=
                                         Perf.decode m.Apiary_core.Message.payload
                                     | Error _ -> incr bad)))
                   in
                   ping 10))));
  Sim.run_for sim 60_000;
  Alcotest.(check int) "no errors along the way" 0 !bad;
  (match !got_tile with
  | None -> Alcotest.fail "no tile block decoded"
  | Some p ->
    (* 10 echo replies + control egress (connect handshake). *)
    Alcotest.(check bool) "echo tile answered the 10 pings" true
      (Perf.read p Perf.msgs_out >= 10));
  match !got_board with
  | None -> Alcotest.fail "no board block decoded"
  | Some p ->
    Alcotest.(check bool) "board summary includes router flits" true
      (Perf.read p Perf.flits > 0)

let test_statsvc_rejects_garbage () =
  let _, k = mk_kernel () in
  Alcotest.(check (option reject)) "out-of-range tile" None
    (Statsvc.answer k (Statsvc.Tile 999));
  Alcotest.(check (option reject)) "malformed query" None
    (Statsvc.decode_query (Bytes.make 5 '\000'));
  (* Every truncation of a valid encoding, an unknown tag and an
     over-long block decode to None rather than raising. *)
  let truncations b = List.init (Bytes.length b) (fun n -> Bytes.sub b 0 n) in
  List.iter
    (fun b ->
      Alcotest.(check (option reject)) "truncated query" None
        (Statsvc.decode_query b))
    (truncations (Statsvc.encode_query (Statsvc.Router 3)));
  Alcotest.(check (option reject)) "unknown query tag" None
    (Statsvc.decode_query (Bytes.of_string "\xff\x00\x01"));
  let block = Perf.encode (Perf.create ()) in
  List.iter
    (fun b ->
      Alcotest.(check (option reject)) "truncated perf block" None
        (Perf.decode b))
    (truncations block);
  Alcotest.(check (option reject)) "over-long perf block" None
    (Perf.decode (Bytes.cat block (Bytes.make 1 '\xa5')))

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flight_ring_bounded () =
  let f = Flight.create ~capacity:16 () in
  Flight.record f ~ts:0 ~tile:0 ~cat:"x" ~name:"ignored-while-disabled" ();
  Alcotest.(check (list reject)) "disabled ring records nothing" []
    (Flight.entries f);
  Flight.set_enabled f true;
  for i = 1 to 40 do
    Flight.record f ~ts:i ~tile:(i mod 4) ~cat:"monitor" ~name:"admit" ()
  done;
  let es = Flight.entries f in
  Alcotest.(check int) "bounded at capacity" 16 (List.length es);
  Alcotest.(check int) "counts every event seen" 40 (Flight.total f);
  Alcotest.(check int) "oldest retained is 25" 25 (List.hd es).Span.ts;
  Alcotest.(check int) "newest retained is 40"
    40 (List.nth es 15).Span.ts;
  Alcotest.(check bool) "marks with the tile as track" true
    (List.for_all
       (fun (e : Span.event) -> e.ph = Span.Mark && e.track = e.ts mod 4)
       es);
  let doc = Flight.dump_json f ~reason:"test" ~cycle:41 in
  Alcotest.(check bool) "dump looks like the postmortem schema" true
    (String.length doc > 0
    && doc.[0] = '{'
    && String.length doc >= 2
    && (let has s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        has doc "\"events\"" && has doc "\"recorded\": 40"))

let test_flight_postmortem_on_fault () =
  let sim, k = mk_kernel () in
  Flight.set_enabled (Kernel.flight k) true;
  Kernel.install k ~tile:5
    (Shell.behavior "victim"
       ~on_boot:(fun sh -> Shell.register_service sh "victim")
       ~on_message:(fun sh _ -> Shell.raise_fault sh "boom"));
  Kernel.install k ~tile:1
    (Shell.behavior "driver" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 1_000 (fun () ->
             Shell.connect sh ~service:"victim" (fun r ->
                 match r with
                 | Error _ -> ()
                 | Ok conn ->
                   Shell.send_data sh conn ~opcode:Accels.op_echo
                     (Bytes.make 8 'x')))));
  Sim.run_for sim 20_000;
  let es = Flight.entries (Kernel.flight k) in
  Alcotest.(check bool) "ring holds the story" true (List.length es > 0);
  let last = List.nth es (List.length es - 1) in
  Alcotest.(check string) "last event is the fault" "fault" last.Span.name;
  Alcotest.(check int) "on the faulting tile" 5 last.Span.track

(* The postmortem renders strings with the shared JSON escaper. *)
let test_flight_dump_escapes_like_export () =
  let f = Flight.create ~capacity:4 () in
  Flight.set_enabled f true;
  Flight.record f ~ts:1 ~tile:0 ~cat:"monitor" ~name:"note"
    ~args:[ ("msg", "a\rb") ] ();
  let doc = Flight.dump_json f ~reason:"r" ~cycle:2 in
  let has sub =
    let n = String.length doc and m = String.length sub in
    let rec go i = i + m <= n && (String.sub doc i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "CR escaped as \\r" true (has {|"msg": "a\rb"|})

(* ------------------------------------------------------------------ *)
(* Critical path decomposition (synthetic spans) *)

let test_critical_path_decomposition () =
  Span.reset ();
  Span.set_enabled true;
  let dur ~cat ~name ~ts d ~corr =
    Span.complete ~board:0 ~cat ~name ~track:0 ~ts ~dur:d ~corr ()
  in
  (* One request: 100 total, one 40-cycle transfer of which 25 in
     routers, so queue = 40 - 25 = 15 and service = 100 - 40 = 60. *)
  dur ~cat:"monitor" ~name:"rpc" ~ts:0 100 ~corr:7;
  dur ~cat:"noc" ~name:"xfer" ~ts:5 40 ~corr:7;
  dur ~cat:"noc" ~name:"hop" ~ts:6 10 ~corr:7;
  dur ~cat:"noc" ~name:"hop" ~ts:20 15 ~corr:7;
  Span.set_enabled false;
  (match Critical_path.analyze (Span.events ()) with
  | [ b ] ->
    Alcotest.(check int) "total" 100 b.Critical_path.total;
    Alcotest.(check int) "hop" 25 b.Critical_path.hop;
    Alcotest.(check int) "queue" 15 b.Critical_path.queue;
    Alcotest.(check int) "service" 60 b.Critical_path.service
  | bs ->
    Alcotest.fail
      (Printf.sprintf "expected one breakdown, got %d" (List.length bs)));
  Span.reset ()

(* ------------------------------------------------------------------ *)
(* Rack watchdog over the management stream *)

let hb = Apiary_obs.Agent.heartbeat_period

(* An idle rack sends nothing but heartbeats. Created before the
   collector (the order perfbench uses), the watchdog must hear every
   board, accuse none, and then catch a kill within the deadline plus
   two heartbeat periods. *)
let test_rack_watchdog_hears_heartbeats () =
  let eng = Cluster.engine ~boards:2 () in
  let cluster = Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2 in
  let watchdog = Rack_health.create ~deadline:3_000 cluster in
  let collector = Collector.create cluster in
  let heard = Array.make 2 0 in
  Cluster.on_board_alive cluster (fun b -> heard.(b) <- heard.(b) + 1);
  let kill_at = 20_000 in
  Sim.at (Cluster.sim cluster) kill_at (fun () -> Cluster.kill cluster ~board:1);
  Par_sim.run_until eng kill_at;
  Alcotest.(check (list (pair int int))) "no false detections" []
    (Rack_health.detections watchdog);
  Array.iteri
    (fun b n ->
      Alcotest.(check bool) (Printf.sprintf "board %d heard" b) true (n > 0))
    heard;
  Alcotest.(check int) "every batch counts as a heartbeat"
    (heard.(0) + heard.(1))
    (Rack_health.heartbeats_seen watchdog);
  Par_sim.run_until eng (kill_at + 10_000);
  Par_sim.shutdown eng;
  Collector.detach collector;
  match Rack_health.detections watchdog with
  | [ (cyc, 1) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "kill detected after %d cycles" (cyc - kill_at))
      true
      (cyc - kill_at <= 3_000 + (2 * hb))
  | ds -> Alcotest.failf "expected one detection of board 1, got %d" (List.length ds)

(* Without a Collector nobody reports proof of life: the first sweep
   must fail loudly instead of declaring every board dead. *)
let test_rack_watchdog_needs_collector () =
  let eng = Cluster.engine ~boards:2 () in
  let cluster = Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2 in
  let _watchdog = Rack_health.create ~deadline:3_000 cluster in
  match Par_sim.run_until eng 10_000 with
  | () -> Alcotest.fail "a watchdog without a collector kept running"
  | exception Failure msg ->
    let has sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("names the collector: " ^ msg) true (has "Collector")

(* ------------------------------------------------------------------ *)
(* Engine invariance: counters are byte-identical across engines *)

(* A rack with echo replicas, a sharded client, per-board health layers
   and the rack heartbeat watchdog; a mid-run kill exercises detection.
   Fingerprint = every tile monitor's and every router's encoded block
   on every board, plus the watchdog's detections. *)
let rack_counter_fingerprint mode ~cycles =
  let boards = 2 in
  let eng = Cluster.engine ~mode ~boards () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards ~client_ports:3
  in
  for bd = 0 to boards - 1 do
    ignore
      (Cluster.install cluster ~board:bd ~service:"mirror"
         (Accels.echo ~service:"mirror" ()))
  done;
  let healths =
    List.map
      (fun nd -> Health.create (Apiary_cluster.Node.kernel nd))
      (Cluster.nodes cluster)
  in
  let collector = Collector.create cluster in
  let watchdog = Rack_health.create ~deadline:3_000 cluster in
  let client =
    Shard_client.create cluster ~timeout:15_000 ~service:"mirror"
      ~op:Accels.op_echo ~route:Shard_client.By_key
      ~gen:(fun n -> (Printf.sprintf "key-%04d" (n mod 64), Bytes.of_string "ping"))
  in
  Sim.after (Cluster.sim cluster) 1_000 (fun () ->
      Shard_client.start client ~concurrency:4);
  Sim.after (Cluster.sim cluster) (cycles / 2) (fun () ->
      Cluster.kill cluster ~board:1);
  Par_sim.run_until eng cycles;
  Shard_client.stop client;
  Par_sim.shutdown eng;
  Collector.detach collector;
  let buf = Buffer.create 4096 in
  List.iter
    (fun nd ->
      let k = Apiary_cluster.Node.kernel nd in
      for tile = 0 to Kernel.n_tiles k - 1 do
        Buffer.add_bytes buf (Perf.encode (Monitor.perf (Kernel.monitor k tile)));
        Buffer.add_bytes buf
          (Perf.encode
             (Router.perf
                (Mesh.router_at (Kernel.mesh k) (Kernel.coord_of_tile k tile))))
      done)
    (Cluster.nodes cluster);
  List.iter
    (fun h -> Buffer.add_string buf (string_of_int (Health.checks h)))
    healths;
  List.iter
    (fun (cyc, bd) -> Buffer.add_string buf (Printf.sprintf "d%d@%d" bd cyc))
    (Rack_health.detections watchdog);
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    Shard_client.completed client,
    List.length (Rack_health.detections watchdog) )

let counter_invariance_prop =
  QCheck.Test.make ~count:3 ~name:"counter blocks invariant across engines"
    QCheck.(make Gen.(oneofl [ 30_000; 45_000; 60_000 ]))
    (fun cycles ->
      let fp_seq, done_seq, det_seq =
        rack_counter_fingerprint Par_sim.Seq ~cycles
      in
      let fp_par, done_par, det_par =
        rack_counter_fingerprint Par_sim.Par ~cycles
      in
      done_seq > 0 && det_seq = 1 && fp_seq = fp_par && done_seq = done_par
      && det_seq = det_par)

let () =
  Alcotest.run "health"
    [
      ( "perf",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick test_perf_roundtrip;
          Alcotest.test_case "merge semantics" `Quick test_perf_merge;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "idle fast-forward never trips" `Quick
            test_watchdog_quiet_on_idle_fastforward;
          Alcotest.test_case "stuck tile trips" `Quick
            test_watchdog_trips_on_stuck_tile;
        ] );
      ( "rack_watchdog",
        [
          Alcotest.test_case "hears heartbeats through the collector" `Quick
            test_rack_watchdog_hears_heartbeats;
          Alcotest.test_case "fails without a collector" `Quick
            test_rack_watchdog_needs_collector;
        ] );
      ( "statsvc",
        [
          Alcotest.test_case "in-band read" `Quick test_statsvc_in_band_read;
          Alcotest.test_case "rejects garbage" `Quick test_statsvc_rejects_garbage;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bounded" `Quick test_flight_ring_bounded;
          Alcotest.test_case "postmortem on fault" `Quick
            test_flight_postmortem_on_fault;
          Alcotest.test_case "dump escapes like export" `Quick
            test_flight_dump_escapes_like_export;
        ] );
      ( "critical_path",
        [
          Alcotest.test_case "decomposition" `Quick
            test_critical_path_decomposition;
        ] );
      ( "invariance",
        [ QCheck_alcotest.to_alcotest counter_invariance_prop ] );
    ]
