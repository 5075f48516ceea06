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
    (* Board 3 is the round-trip batch's header board. *)
    Wire.Span_done
      {
        Span.name = "serve";
        cat = "net";
        corr = 0;
        board = 3;
        track = 5;
        ts = 1_000;
        dur = 250;
        ph = Span.Dur;
        args = [ ("req_id", "17"); ("status", "ok") ];
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

(* A span's board is not on the wire: the decoder takes the batch
   header's. Strings and the arg list come back cut to 255, as the
   format says. *)
let test_wire_span_board_and_truncation () =
  let long = String.make 300 'n' in
  let args =
    List.init 300 (fun i -> (Printf.sprintf "k%d" i, if i = 0 then long else "v"))
  in
  let ev =
    {
      Span.name = long;
      cat = "net";
      corr = 7;
      board = 0;
      track = 2;
      ts = 10;
      dur = 5;
      ph = Span.Dur;
      args;
    }
  in
  let payload =
    Wire.encode_batch ~board:6 ~seq:1 ~ts:20 ~cum_records:0 ~cum_dropped:0
      [ Wire.encode_record (Wire.Span_done ev) ]
  in
  match Wire.decode_batch payload with
  | Some { Wire.b_records = [ Wire.Span_done got ]; _ } ->
    let cut s = String.sub s 0 255 in
    Alcotest.(check int) "board from the header" 6 got.board;
    Alcotest.(check string) "name cut to 255" (cut long) got.name;
    Alcotest.(check int) "arg list cut to 255" 255 (List.length got.args);
    Alcotest.(check bool) "the first 255 args, values cut to 255" true
      (got.args
      = List.filteri (fun i _ -> i < 255) (("k0", cut long) :: List.tl args));
    Alcotest.(check bool) "other fields intact" true
      (got.cat = "net" && got.corr = 7 && got.track = 2 && got.ts = 10
     && got.dur = 5 && got.ph = Span.Dur)
  | _ -> Alcotest.fail "expected one span record"

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

(* The harvest's delta rule over generated scripts. Counters, gauges
   and histograms under the agent's prefix [t7.] (and a sampler-written
   gauge) change between [Agent.tick]s, next to a second prefix [t7x.]
   that shares the first two characters. Histograms also take merges
   and re-registrations of themselves, a sampler added mid-run counts
   the harvests it sees into a new name, and [Registry.reset] zeroes
   everything. A flat model replays the same steps: every harvest ships
   the prefix's names in [String.compare] order, a counter's delta when
   it moved, a gauge's value when it changed or was first seen, a
   histogram's positive bucket deltas; after a reset, everything counts
   as never shipped. The model holds only [t7.] names, so a [t7x.] name
   never ships, and the [t7x.] sampler must never run. The queue and
   batches are large enough that nothing drops or waits. *)
type harvest_step =
  | H_add of int * int  (** counter [t7.c<i>] += n (0 creates it) *)
  | H_set of int * int  (** gauge [t7.g<i>] := v *)
  | H_set_same of int  (** gauge [t7.g<i>] := its current value *)
  | H_record of int * int  (** histogram [t7.h<i>] records v *)
  | H_merge of int * int  (** a histogram holding v twice merges into [t7.h<i>] *)
  | H_reregister of int  (** [t7.h<i>] is registered again as it is *)
  | H_late  (** install the [t7.late] sampler, which counts its runs *)
  | H_reset  (** [Registry.reset] *)
  | H_level of int  (** the value the [t7.smp] sampler writes next *)
  | H_other of int  (** the same three kinds under [t7x.] *)
  | H_tick

let harvest_step_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun i n -> H_add (i, n)) (int_range 0 2) (int_range 0 5));
        (3, map2 (fun i v -> H_set (i, v)) (int_range 0 2) (int_range 0 3));
        (1, map (fun i -> H_set_same i) (int_range 0 2));
        ( 3,
          map2
            (fun i v -> H_record (i, v))
            (int_range 0 1)
            (oneof [ int_range 0 20; int_range 0 100_000 ]) );
        (1, map2 (fun i v -> H_merge (i, v)) (int_range 0 1) (int_range 0 5_000));
        (1, map (fun i -> H_reregister i) (int_range 0 1));
        (1, return H_late);
        (1, return H_reset);
        (1, map (fun v -> H_level v) (int_range 0 2));
        (2, map (fun v -> H_other v) (int_range 0 1_000));
        (3, return H_tick);
      ])

let print_harvest_step = function
  | H_add (i, n) -> Printf.sprintf "add c%d %d" i n
  | H_set (i, v) -> Printf.sprintf "set g%d %d" i v
  | H_set_same i -> Printf.sprintf "set_same g%d" i
  | H_record (i, v) -> Printf.sprintf "record h%d %d" i v
  | H_merge (i, v) -> Printf.sprintf "merge h%d %d" i v
  | H_reregister i -> Printf.sprintf "reregister h%d" i
  | H_late -> "late"
  | H_reset -> "reset"
  | H_level v -> Printf.sprintf "level %d" v
  | H_other v -> Printf.sprintf "other %d" v
  | H_tick -> "tick"

type harvest_model =
  | M_counter of { mutable cur : int; mutable shipped : int }
  | M_gauge of { mutable value : float; mutable seen : float option }
  | M_hist of { cur : int array; shipped : int array }

let harvest_model_records script =
  let names : (string, harvest_model) Hashtbl.t = Hashtbl.create 16 in
  let get name make =
    match Hashtbl.find_opt names name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.add names name m;
      m
  in
  let counter name =
    get name (fun () -> M_counter { cur = 0; shipped = 0 })
  and gauge name = get name (fun () -> M_gauge { value = 0.0; seen = None })
  and hist name =
    get name (fun () ->
        M_hist
          {
            cur = Array.make Stats.Histogram.bucket_count 0;
            shipped = Array.make Stats.Histogram.bucket_count 0;
          })
  in
  let level = ref 0 and late = ref false and out = ref [] in
  List.iter
    (function
      | H_add (i, n) -> (
        match counter (Printf.sprintf "t7.c%d" i) with
        | M_counter c -> c.cur <- c.cur + n
        | _ -> assert false)
      | H_set (i, v) -> (
        match gauge (Printf.sprintf "t7.g%d" i) with
        | M_gauge g -> g.value <- float_of_int v
        | _ -> assert false)
      | H_set_same i -> ignore (gauge (Printf.sprintf "t7.g%d" i))
      | H_record (i, v) -> (
        match hist (Printf.sprintf "t7.h%d" i) with
        | M_hist h ->
          let b = Stats.Histogram.bucket_of v in
          h.cur.(b) <- h.cur.(b) + 1
        | _ -> assert false)
      | H_merge (i, v) -> (
        match hist (Printf.sprintf "t7.h%d" i) with
        | M_hist h ->
          let b = Stats.Histogram.bucket_of v in
          h.cur.(b) <- h.cur.(b) + 2
        | _ -> assert false)
      | H_reregister i -> ignore (hist (Printf.sprintf "t7.h%d" i))
      | H_late -> late := true
      | H_reset ->
        Hashtbl.iter
          (fun _ -> function
            | M_counter c ->
              c.cur <- 0;
              c.shipped <- 0
            | M_gauge g ->
              g.value <- 0.0;
              g.seen <- None
            | M_hist h ->
              Array.fill h.cur 0 (Array.length h.cur) 0;
              Array.fill h.shipped 0 (Array.length h.shipped) 0)
          names
      | H_level v -> level := v
      | H_other _ -> ()
      | H_tick ->
        (* The samplers run first, so their names exist from the first
           harvest they see on. *)
        (match gauge "t7.smp.level" with
        | M_gauge g -> g.value <- float_of_int !level
        | _ -> assert false);
        if !late then (
          match counter "t7.late.runs" with
          | M_counter c -> c.cur <- c.cur + 1
          | _ -> assert false);
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) names []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (name, m) ->
               match m with
               | M_counter c ->
                 if c.cur <> c.shipped then begin
                   out := Wire.Counter_delta (name, c.cur - c.shipped) :: !out;
                   c.shipped <- c.cur
                 end
               | M_gauge g ->
                 if g.seen <> Some g.value then begin
                   out := Wire.Gauge_value (name, g.value) :: !out;
                   g.seen <- Some g.value
                 end
               | M_hist h ->
                 let deltas = ref [] in
                 for b = Stats.Histogram.bucket_count - 1 downto 0 do
                   let d = h.cur.(b) - h.shipped.(b) in
                   if d > 0 then deltas := (b, d) :: !deltas;
                   h.shipped.(b) <- h.cur.(b)
                 done;
                 if !deltas <> [] then
                   out := Wire.Hist_delta (name, !deltas) :: !out))
    script;
  List.rev !out

let harvest_agent_records script =
  Registry.clear ();
  let sim = Sim.create () in
  let shipped = ref [] in
  let send payload =
    (match Wire.decode_batch payload with
    | Some b -> shipped := List.rev_append b.Wire.b_records !shipped
    | None -> Alcotest.fail "agent sent an undecodable batch");
    true
  in
  let a =
    Agent.create ~period:100 ~queue_cap:100_000 ~batch_bytes:60_000
      ~max_frames:1_000 ~sim ~board:0 ~prefix:"t7." ~send ()
  in
  let level = ref 0 and other_runs = ref 0 in
  Registry.add_sampler ~name:"t7.smp" (fun () ->
      Stats.Gauge.set (Registry.gauge "t7.smp.level") (float_of_int !level));
  Registry.add_sampler ~name:"t7x.smp" (fun () -> incr other_runs);
  let now = ref 0 in
  List.iter
    (function
      | H_add (i, n) ->
        Stats.Counter.add (Registry.counter (Printf.sprintf "t7.c%d" i)) n
      | H_set (i, v) ->
        Stats.Gauge.set (Registry.gauge (Printf.sprintf "t7.g%d" i))
          (float_of_int v)
      | H_set_same i ->
        let g = Registry.gauge (Printf.sprintf "t7.g%d" i) in
        Stats.Gauge.set g (Stats.Gauge.value g)
      | H_record (i, v) ->
        Stats.Histogram.record (Registry.histogram (Printf.sprintf "t7.h%d" i)) v
      | H_merge (i, v) ->
        let src = Stats.Histogram.create "src" in
        Stats.Histogram.record_n src v 2;
        Stats.Histogram.merge_into ~src
          ~dst:(Registry.histogram (Printf.sprintf "t7.h%d" i))
      | H_reregister i ->
        let name = Printf.sprintf "t7.h%d" i in
        Registry.register name (Registry.Histogram (Registry.histogram name))
      | H_late ->
        Registry.add_sampler ~name:"t7.late" (fun () ->
            Stats.Counter.incr (Registry.counter "t7.late.runs"))
      | H_reset -> Registry.reset ()
      | H_level v -> level := v
      | H_other v ->
        Stats.Counter.add (Registry.counter "t7x.c0") (v + 1);
        Stats.Gauge.set (Registry.gauge "t7x.g0") (float_of_int v);
        Stats.Histogram.record (Registry.histogram "t7x.h0") v
      | H_tick ->
        now := !now + 100;
        Agent.tick a ~now:!now)
    script;
  let books =
    Agent.dropped a = 0 && Agent.queued a = 0
    && Agent.sent_records a = Agent.emitted a
  in
  Agent.detach a;
  Registry.clear ();
  (List.rev !shipped, books, !other_runs)

let prop_harvest_deltas =
  QCheck.Test.make ~name:"harvest ships the prefix's deltas in name order"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_harvest_step)
       QCheck.Gen.(list_size (int_range 1 60) harvest_step_gen))
    (fun script ->
      let shipped, books, other_runs = harvest_agent_records script in
      books && other_runs = 0 && shipped = harvest_model_records script)

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
          Alcotest.test_case "span board and truncation" `Quick
            test_wire_span_board_and_truncation;
          Alcotest.test_case "garbage rejected" `Quick
            test_wire_rejects_garbage;
        ] );
      ( "agent",
        [
          Alcotest.test_case "drop-oldest accounting" `Quick
            test_agent_drop_oldest;
          Alcotest.test_case "heartbeats" `Quick test_agent_heartbeat;
          QCheck_alcotest.to_alcotest prop_harvest_deltas;
        ] );
      ( "collector",
        [
          Alcotest.test_case "conservation under kill" `Quick
            test_collector_conservation;
        ] );
      ( "env", [ Alcotest.test_case "tolerant fallback" `Quick test_env_fallback ] );
    ]
