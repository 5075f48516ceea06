(* The in-band telemetry plane: batch wire format, the agent's bounded
   queue and its books, and the collector's conservation accounting
   under a real mid-run port kill. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Stats = Apiary_engine.Stats
module Kv = Apiary_accel.Kv
module Cluster = Apiary_cluster.Cluster
module Collector = Apiary_cluster.Collector
module Shard_client = Apiary_cluster.Shard_client
module Agent = Apiary_obs.Agent
module Wire = Apiary_obs.Agent.Wire
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Env = Apiary_obs.Env

(* ------------------------------------------------------------------ *)
(* Wire format *)

let sample_records =
  [
    Wire.Counter_delta ("b0.kernel.msgs_out", 42);
    Wire.Gauge_value ("b0.noc.r0_0.util", 0.125);
    Wire.Hist_delta ("b0.noc.latency", [ (0, 3); (7, 1) ]);
    Wire.Span_done
      {
        Wire.s_name = "serve";
        s_cat = "net";
        s_corr = 0;
        s_track = 5;
        s_ts = 1_000;
        s_dur = 250;
        s_args = [ ("req_id", "17"); ("status", "ok") ];
      };
    Wire.Load { msgs = 1_234; tile_msgs = [| 0; 7; 0xffff |] };
    Wire.Alarm { kind = 1; tile = 5 };
  ]

let test_wire_roundtrip () =
  let payload =
    Wire.encode_batch ~board:3 ~seq:9 ~ts:12_345 ~cum_records:100
      ~cum_dropped:7
      (List.map Wire.encode_record sample_records)
  in
  match Wire.decode_batch payload with
  | None -> Alcotest.fail "decode of a well-formed batch failed"
  | Some b ->
    Alcotest.(check int) "board" 3 b.Wire.b_board;
    Alcotest.(check int) "seq" 9 b.Wire.b_seq;
    Alcotest.(check int) "ts" 12_345 b.Wire.b_ts;
    Alcotest.(check int) "cum records" 100 b.Wire.b_cum_records;
    Alcotest.(check int) "cum dropped" 7 b.Wire.b_cum_dropped;
    Alcotest.(check bool) "records round-trip" true
      (b.Wire.b_records = sample_records);
    (* A heartbeat is a header-only batch. *)
    let beat =
      Wire.encode_batch ~board:2 ~seq:4 ~ts:500 ~cum_records:3 ~cum_dropped:0 []
    in
    Alcotest.(check bool) "header-only batch round-trips" true
      (Wire.decode_batch beat
      = Some
          {
            Wire.b_board = 2;
            b_seq = 4;
            b_ts = 500;
            b_cum_records = 3;
            b_cum_dropped = 0;
            b_records = [];
          })

let test_wire_rejects_garbage () =
  let payload =
    Wire.encode_batch ~board:0 ~seq:1 ~ts:0 ~cum_records:0 ~cum_dropped:0
      (List.map Wire.encode_record sample_records)
  in
  (* Wrong magic: not ours, not an error to skip. *)
  let bad = Bytes.copy payload in
  Bytes.set bad 0 'X';
  Alcotest.(check bool) "bad magic rejected" true
    (Wire.decode_batch bad = None);
  (* Truncation anywhere in the body must never raise. *)
  for len = 0 to Bytes.length payload - 1 do
    ignore (Wire.decode_batch (Bytes.sub payload 0 len))
  done;
  Alcotest.(check bool) "truncated header rejected" true
    (Wire.decode_batch (Bytes.sub payload 0 (Wire.header_bytes - 1)) = None);
  let load =
    Wire.encode_batch ~board:0 ~seq:1 ~ts:0 ~cum_records:0 ~cum_dropped:0
      [ Wire.encode_record (Wire.Load { msgs = 9; tile_msgs = [| 1; 2; 3 |] }) ]
  in
  Alcotest.(check bool) "truncated load report rejected" true
    (Wire.decode_batch (Bytes.sub load 0 (Bytes.length load - 1)) = None)

(* ------------------------------------------------------------------ *)
(* Agent queue accounting *)

(* 8 fresh counters harvested into a 4-slot queue with the device
   refusing the flush: the 4 oldest records fall out, the books still
   balance, and the next (accepted) flush ships exactly the survivors
   with the drop count riding the header. *)
let test_agent_drop_oldest () =
  Registry.clear ();
  let sim = Sim.create () in
  let sent = ref [] in
  let accept = ref false in
  let send payload =
    if !accept then begin
      sent := payload :: !sent;
      true
    end
    else false
  in
  let a =
    Agent.create ~period:100 ~queue_cap:4 ~batch_bytes:4_096 ~sim ~board:0
      ~prefix:"t9." ~send ()
  in
  for i = 0 to 7 do
    Stats.Counter.add (Registry.counter (Printf.sprintf "t9.c%d" i)) (i + 1)
  done;
  Agent.tick a ~now:100;
  Alcotest.(check int) "emitted all 8" 8 (Agent.emitted a);
  Alcotest.(check int) "oldest 4 dropped" 4 (Agent.dropped a);
  Alcotest.(check int) "4 still queued" 4 (Agent.queued a);
  Alcotest.(check int) "nothing shipped yet" 0 (Agent.sent_records a);
  Alcotest.(check bool) "backpressure recorded" true (Agent.backpressure a > 0);
  Alcotest.(check int) "local identity" (Agent.emitted a)
    (Agent.sent_records a + Agent.dropped a + Agent.queued a);
  accept := true;
  Agent.tick a ~now:200;
  Alcotest.(check int) "survivors shipped" 4 (Agent.sent_records a);
  Alcotest.(check int) "queue drained" 0 (Agent.queued a);
  (match !sent with
  | [ payload ] -> (
    match Wire.decode_batch payload with
    | None -> Alcotest.fail "shipped batch must decode"
    | Some b ->
      Alcotest.(check int) "header carries the drops" 4 b.Wire.b_cum_dropped;
      let names =
        List.filter_map
          (function Wire.Counter_delta (n, _) -> Some n | _ -> None)
          b.Wire.b_records
      in
      (* Drop-oldest keeps the newest data: c4..c7 survive. *)
      Alcotest.(check (list string)) "newest records survive"
        [ "t9.c4"; "t9.c5"; "t9.c6"; "t9.c7" ] names)
  | l -> Alcotest.failf "expected exactly one batch, got %d" (List.length l));
  Agent.detach a;
  Registry.clear ()

(* Heartbeats: a beat ships a header-only batch only when nothing else
   went out since the previous beat; beats outlive [until] (the
   watchdog must keep hearing a board whose telemetry stopped) and stop
   at [detach]. *)
let test_agent_heartbeat () =
  Registry.clear ();
  let sim = Sim.create () in
  let sent = ref [] in
  let send payload =
    (match Wire.decode_batch payload with
    | Some b -> sent := b :: !sent
    | None -> Alcotest.fail "agent sent an undecodable batch");
    true
  in
  let a =
    Agent.create ~period:2_000 ~until:3_000 ~sim ~board:0 ~prefix:"hb9."
      ~send ()
  in
  let hb = Agent.heartbeat_period in
  let newest () = List.hd !sent in
  Sim.run_until sim (hb + 1);
  Alcotest.(check int) "first beat shipped" 1 (List.length !sent);
  Alcotest.(check int) "first beat is seq 1" 1 (newest ()).Wire.b_seq;
  Alcotest.(check bool) "header only" true ((newest ()).Wire.b_records = []);
  Sim.run_until sim (hb + 100);
  Agent.push a ~now:(Sim.now sim) (Wire.Alarm { kind = 0; tile = 3 });
  Alcotest.(check int) "push flushes at once" 2 (List.length !sent);
  Alcotest.(check int) "pushed batch is seq 2" 2 (newest ()).Wire.b_seq;
  Sim.run_until sim ((2 * hb) + 1);
  Alcotest.(check int) "beat after a push is skipped" 2 (List.length !sent);
  Sim.run_until sim ((3 * hb) + 1);
  let b = newest () in
  Alcotest.(check int) "quiet beat ships seq + 1" 3 b.Wire.b_seq;
  Alcotest.(check bool) "still header only" true (b.Wire.b_records = []);
  Alcotest.(check int) "cum_records unchanged by a beat" 1 b.Wire.b_cum_records;
  Sim.run_until sim 5_001;
  Alcotest.(check int) "beats continue past until" 5_000 (newest ()).Wire.b_ts;
  Alcotest.(check (list int)) "sequence has no gaps"
    (List.init (List.length !sent) (fun i -> i + 1))
    (List.rev_map (fun b -> b.Wire.b_seq) !sent);
  Agent.detach a;
  let n = List.length !sent in
  Sim.run_until sim 8_000;
  Alcotest.(check int) "beats stop at detach" n (List.length !sent);
  Registry.clear ()

(* ------------------------------------------------------------------ *)
(* Collector conservation under a port kill *)

let test_collector_conservation () =
  Registry.clear ();
  Span.reset ();
  Span.set_sampling ~head_mod:8 ~slow_cycles:20_000 ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.set_sampling ();
      Span.reset ();
      Registry.clear ())
    (fun () ->
      let eng = Cluster.engine ~boards:2 () in
      let sim = Par_sim.sim eng 0 in
      let cluster = Cluster.create ~engine:eng sim ~boards:2 ~client_ports:2 in
      for b = 0 to 1 do
        ignore
          (Cluster.install cluster ~board:b ~service:"kv"
             (fst (Kv.behavior ())))
      done;
      Cluster.register_metrics cluster;
      (* Starved agents (an 8-record queue, one small frame per tick)
         so the run forces both real wire loss and agent-side drops. *)
      let col =
        Collector.create ~agent_period:500 ~agent_queue:8
          ~agent_batch_bytes:512 ~agent_max_frames:1 ~agent_until:33_000
          cluster
      in
      let sc =
        Shard_client.create cluster ~timeout:10_000 ~service:"kv"
          ~op:Kv.Proto.opcode ~route:Shard_client.By_key
          ~gen:(fun n ->
            (Printf.sprintf "k%03d" (n mod 64), Bytes.make 32 'x'))
      in
      Sim.after sim 2_000 (fun () -> Shard_client.start sc ~concurrency:4);
      Sim.after sim 10_000 (fun () -> Cluster.kill cluster ~board:1);
      Sim.after sim 20_000 (fun () -> Cluster.restore cluster ~board:1);
      Sim.after sim 30_000 (fun () -> Shard_client.stop sc);
      Par_sim.run_for eng 40_000;
      for b = 0 to 1 do
        let a = Collector.agent col b in
        let delivered = Collector.delivered col ~board:b in
        let lost = Agent.sent_records a - delivered in
        let emitted = Agent.emitted a in
        Alcotest.(check int)
          (Printf.sprintf "board %d books balance" b)
          emitted
          (delivered + Agent.dropped a + lost + Agent.queued a);
        Alcotest.(check int)
          (Printf.sprintf "board %d gap detection is exact" b)
          lost
          (Collector.lost_records_detected col ~board:b)
      done;
      let victim = Collector.agent col 1 in
      Alcotest.(check bool) "victim lost real records on the wire" true
        (Agent.sent_records victim - Collector.delivered col ~board:1 > 0);
      Alcotest.(check bool) "victim dropped at the agent too" true
        (Agent.dropped victim > 0);
      Alcotest.(check bool) "collector saw the sequence gap" true
        (Collector.lost_batches col ~board:1 > 0);
      Alcotest.(check bool) "survivor lost nothing" true
        (Agent.sent_records (Collector.agent col 0)
         = Collector.delivered col ~board:0);
      Collector.detach col)

(* ------------------------------------------------------------------ *)
(* Env fallback *)

let test_env_fallback () =
  Unix.putenv "APIARY_TEST_TELEM_KNOB" "banana";
  Alcotest.(check int) "garbage falls back to default" 7
    (Env.int "APIARY_TEST_TELEM_KNOB" ~default:7);
  (* The warning is one-shot; a second read must stay quiet and still
     return the default rather than raising or caching garbage. *)
  Alcotest.(check int) "second read same fallback" 7
    (Env.int "APIARY_TEST_TELEM_KNOB" ~default:7);
  Unix.putenv "APIARY_TEST_TELEM_KNOB" "12";
  Alcotest.(check int) "valid value parses" 12
    (Env.int "APIARY_TEST_TELEM_KNOB" ~default:7);
  Alcotest.(check int) "below min falls back" 7
    (Env.int ~min:100 "APIARY_TEST_TELEM_KNOB" ~default:7)

let () =
  Alcotest.run "telemetry"
    [
      ( "wire",
        [
          Alcotest.test_case "batch roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_wire_rejects_garbage;
        ] );
      ( "agent",
        [
          Alcotest.test_case "drop-oldest accounting" `Quick
            test_agent_drop_oldest;
          Alcotest.test_case "heartbeats" `Quick test_agent_heartbeat;
        ] );
      ( "collector",
        [
          Alcotest.test_case "conservation under kill" `Quick
            test_collector_conservation;
        ] );
      ( "env", [ Alcotest.test_case "tolerant fallback" `Quick test_env_fallback ] );
    ]
