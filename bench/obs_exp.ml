(* E13 — in-fabric introspection: what does it cost to watch a live
   fabric from inside, and what does watching buy you?

   - e13a: the stat service is an ordinary capability-gated tile, so
     reading counters steals fabric bandwidth from the workload —
     measure a closed-loop echo workload while an in-fabric reader
     polls board-wide counters at increasing rates.
   - e13b: failure detection. The same 4-board kill drill as E12d run
     twice: once with PR 2's client-side request timeouts as the only
     detector, once with the rack heartbeat watchdog feeding
     Cluster.on_board_down so clients reshard and reissue immediately.
   - e13c: the fault flight recorder. Inject a fail-stop mid-workload,
     dump the board's ring as postmortem JSON, and check the tail of
     the story it tells.

   With --obs, additionally attributes request latency to queue-wait /
   hop / service time over the span trees (Critical_path) for a
   fixed-seed KV run. APIARY_SMALL=1 shrinks durations for CI. *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Shell = Apiary_core.Shell
module Kernel = Apiary_core.Kernel
module Monitor = Apiary_core.Monitor
module Mesh = Apiary_noc.Mesh
module Statsvc = Apiary_core.Statsvc
module Kv = Apiary_accel.Kv
module Accels = Apiary_accel.Accels
module Perf = Apiary_obs.Perf
module Flight = Apiary_obs.Flight
module Span = Apiary_obs.Span
module Critical_path = Apiary_obs.Critical_path
module Cluster = Apiary_cluster.Cluster
module Rack_health = Apiary_cluster.Rack_health
module Collector = Apiary_cluster.Collector
module Shard_client = Apiary_cluster.Shard_client
open Bench_util

let bytes_of n = Bytes.make n 'x'

let mk_kernel () =
  let sim = Sim.create () in
  let cfg = { Kernel.default_config with Kernel.dram_bytes = 4 * 1024 * 1024 } in
  (sim, Kernel.create sim cfg)

(* ------------------------------------------------------------------ *)
(* E13a — counter-read overhead. Echo workload on one tile, the stat
   service on another, and a reader tile polling the (most expensive)
   board-wide query every [read_period] cycles; 0 = no reader. *)

let e13a_run ~read_period ~duration =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:5 (Accels.echo ~cost:4 ());
  ignore (Statsvc.install k ~tile:6);
  let ops = ref 0 in
  Kernel.install k ~tile:1
    (Shell.behavior "driver" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 2_000 (fun () ->
             Shell.connect sh ~service:"echo" (fun r ->
                 match r with
                 | Error _ -> ()
                 | Ok conn ->
                   let rec go () =
                     Shell.request sh conn ~opcode:Accels.op_echo (bytes_of 32)
                       (fun _ ->
                         incr ops;
                         go ())
                   in
                   go ()))));
  let reads = ref 0 and bad = ref 0 in
  let read_lat = Stats.Histogram.create "e13a_read" in
  if read_period > 0 then
    Kernel.install k ~tile:2
      (Shell.behavior "reader" ~on_boot:(fun sh ->
           Sim.after (Shell.sim sh) 2_000 (fun () ->
               Shell.connect sh ~service:Statsvc.service_name (fun r ->
                   match r with
                   | Error _ -> ()
                   | Ok conn ->
                     let rec go () =
                       let t0 = Shell.now sh in
                       Shell.request sh conn ~opcode:Statsvc.opcode
                         (Statsvc.encode_query Statsvc.Board) (fun r ->
                           (match r with
                           | Ok m -> (
                             Stats.Histogram.record read_lat (Shell.now sh - t0);
                             incr reads;
                             match Perf.decode m.Apiary_core.Message.payload with
                             | Some _ -> ()
                             | None -> incr bad)
                           | Error _ -> incr bad);
                           Sim.after (Shell.sim sh) read_period go)
                     in
                     go ()))));
  Sim.run_for sim duration;
  (!ops, !reads, !bad, p50 read_lat, p99 read_lat)

(* ------------------------------------------------------------------ *)
(* E13b — timeout-driven vs alarm-driven failover. The E12d drill
   (kill one of four boards, no restore) with the recovery window —
   kill to first bucket back at >=90% of pre-kill throughput — as the
   figure of merit. [`Timeout] is PR 2's baseline; [`Watchdog] adds
   the rack heartbeat monitor. *)

let e13b_run ~detector ~duration ~kill_at ~interval =
  let boards = 4 and victim = 2 in
  let series = Stats.Series.create "e13b" ~interval in
  let gen n =
    let key = Printf.sprintf "k%03d" (n mod 167) in
    let req =
      if n land 1 = 0 then Kv.Proto.Put (key, bytes_of 64) else Kv.Proto.Get key
    in
    (key, Kv.Proto.encode_req req)
  in
  let failovers, detect =
    with_rack ~boards ~clients:3 ~duration (fun sim cluster ->
        for b = 0 to boards - 1 do
          ignore
            (Cluster.install cluster ~board:b ~service:"kv"
               (fst (Kv.behavior ())))
        done;
        (* The watchdog hears the boards through the collector. *)
        let watchdog =
          match detector with
          | `Timeout -> None
          | `Watchdog ->
            let col = Collector.create cluster in
            Some (col, Rack_health.create ~deadline:3_000 cluster)
        in
        let clients =
          List.init 2 (fun _ ->
              Shard_client.create cluster ~timeout:20_000 ~service:"kv"
                ~op:Kv.Proto.opcode ~route:Shard_client.By_key ~gen)
        in
        List.iter
          (fun c ->
            Shard_client.set_on_complete c (fun ~now ->
                Stats.Series.record series ~now 1.0))
          clients;
        Sim.after sim 3_000 (fun () ->
            List.iter (fun c -> Shard_client.start c ~concurrency:8) clients);
        Sim.after sim kill_at (fun () -> Cluster.kill cluster ~board:victim);
        fun () ->
          List.iter Shard_client.stop clients;
          let failovers =
            List.fold_left (fun a c -> a + Shard_client.failovers c) 0 clients
          in
          let detect =
            match watchdog with
            | None -> None
            | Some (col, w) -> (
              Collector.detach col;
              match
                List.find_opt (fun (_, b) -> b = victim)
                  (Rack_health.detections w)
              with
              | Some (cyc, _) -> Some (cyc - kill_at)
              | None -> None)
          in
          (failovers, detect))
  in
  let buckets = Stats.Series.buckets series in
  let avg_over lo hi =
    match
      List.filter (fun (t, _) -> t >= lo && t + interval <= hi) buckets
    with
    | [] -> 0.0
    | sel ->
      List.fold_left (fun a (_, v) -> a +. v) 0.0 sel
      /. float_of_int (List.length sel)
  in
  let pre = avg_over (kill_at / 2) kill_at in
  let recovered_at =
    let rec scan = function
      | [] -> duration
      | (t, v) :: rest ->
        if t >= kill_at && v >= 0.9 *. pre then t else scan rest
    in
    scan buckets
  in
  (recovered_at - kill_at, failovers, detect)

(* ------------------------------------------------------------------ *)
(* E13c — flight-recorder fidelity. Arm the board's ring, run an echo
   workload into a tile that fail-stops itself on its 25th request, and
   dump the postmortem at the fault notification. *)

let e13c_postmortem = "BENCH_e13_postmortem.json"

let e13c_run () =
  let sim, k = mk_kernel () in
  Flight.set_enabled (Kernel.flight k) true;
  let served = ref 0 in
  Kernel.install k ~tile:5
    (Shell.behavior "victim"
       ~on_boot:(fun sh -> Shell.register_service sh "victim")
       ~on_message:(fun sh m ->
         incr served;
         if !served >= 25 then Shell.raise_fault sh "injected: deadbeef"
         else Shell.respond sh m ~opcode:Accels.op_echo m.Apiary_core.Message.payload));
  Kernel.install k ~tile:1
    (Shell.behavior "driver" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 2_000 (fun () ->
             Shell.connect sh ~service:"victim" (fun r ->
                 match r with
                 | Error _ -> ()
                 | Ok conn ->
                   let rec go () =
                     Shell.request sh conn ~opcode:Accels.op_echo (bytes_of 32)
                       (fun r -> match r with Ok _ -> go () | Error _ -> ())
                   in
                   go ()))));
  let dump = ref None in
  Kernel.on_fault k (fun tile reason ->
      if !dump = None then
        dump :=
          Some
            (Flight.dump_json (Kernel.flight k)
               ~reason:(Printf.sprintf "tile %d: %s" tile reason)
               ~cycle:(Sim.now sim)));
  Sim.run_for sim 60_000;
  let flight = Kernel.flight k in
  let entries = Flight.entries flight in
  let last_is_fault =
    match List.rev entries with
    | e :: _ -> e.Span.cat = "monitor" && e.Span.name = "fault"
    | [] -> false
  in
  (match !dump with
  | Some doc ->
    let oc = open_out e13c_postmortem in
    output_string oc doc;
    close_out oc
  | None -> ());
  ( !dump <> None,
    List.length entries,
    Flight.total flight,
    Flight.capacity flight,
    last_is_fault )

(* ------------------------------------------------------------------ *)
(* Critical-path attribution (--obs): where does a KV request's
   latency go? Fixed-seed single-board run with spans on; every
   completed RPC decomposes into queue-wait (NIC/monitor queues before
   the wire), hop (router traversals) and service (the far tile). *)

let e13_obs () =
  subhead "E13 critical-path attribution (--obs)";
  Span.reset ();
  Span.set_enabled true;
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:5 (fst (Kv.behavior ()));
  let done_ = ref 0 in
  Kernel.install k ~tile:1
    (Shell.behavior "driver" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 2_000 (fun () ->
             Shell.connect sh ~service:"kv" (fun r ->
                 match r with
                 | Error _ -> ()
                 | Ok conn ->
                   let rec go n =
                     let key = Printf.sprintf "k%03d" (n mod 167) in
                     let req =
                       if n land 1 = 0 then Kv.Proto.Put (key, bytes_of 64)
                       else Kv.Proto.Get key
                     in
                     Shell.request sh conn ~opcode:Kv.Proto.opcode
                       (Kv.Proto.encode_req req) (fun _ ->
                         incr done_;
                         go (n + 1))
                   in
                   go 0))));
  Sim.run_for sim 80_000;
  Span.set_enabled false;
  let bds = Critical_path.analyze (Span.events ()) in
  let s = Critical_path.summarize bds in
  Printf.printf "%d ops, %d attributed request trees\n" !done_ s.Critical_path.n;
  let row name h =
    [ name; i (p50 h); f1 (us_of_cycles (p50 h)); i (p99 h);
      f1 (us_of_cycles (p99 h)) ]
  in
  table
    [ "component"; "p50 cyc"; "p50 us"; "p99 cyc"; "p99 us" ]
    [
      row "total (rpc)" s.Critical_path.h_total;
      row "queue-wait" s.Critical_path.h_queue;
      row "hops" s.Critical_path.h_hop;
      row "service" s.Critical_path.h_service;
    ];
  Span.reset ()

(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13"
    "in-fabric introspection: stat service, watchdog failover, flight recorder";
  let sm = small () in

  subhead "E13a: board-wide counter reads vs workload throughput";
  let duration = if sm then 60_000 else 200_000 in
  let periods = [ 0; 2_000; 500; 100 ] in
  let results =
    List.map (fun p -> (p, e13a_run ~read_period:p ~duration)) periods
  in
  let base =
    match results with (_, (ops, _, _, _, _)) :: _ -> max 1 ops | [] -> 1
  in
  table
    [ "read period"; "echo ops"; "vs off"; "reads"; "bad"; "read p50 us";
      "read p99 us" ]
    (List.map
       (fun (p, (ops, reads, bad, r50, r99)) ->
         [
           (if p = 0 then "off" else i p);
           i ops;
           pct (float_of_int ops /. float_of_int base -. 1.0);
           i reads;
           i bad;
           f1 (us_of_cycles r50);
           f1 (us_of_cycles r99);
         ])
       results);
  Printf.printf
    "(the stat service is a tile like any other: polling the whole board\n\
    \ rides the same NoC and the same capability checks as the workload)\n";

  subhead "E13b: failover detection — request timeouts vs rack watchdog";
  let duration, kill_at, interval =
    if sm then (200_000, 80_000, 5_000) else (400_000, 150_000, 5_000)
  in
  let t_win, t_fo, _ = e13b_run ~detector:`Timeout ~duration ~kill_at ~interval in
  let w_win, w_fo, w_detect =
    e13b_run ~detector:`Watchdog ~duration ~kill_at ~interval
  in
  table
    [ "detector"; "detection"; "degraded window"; "window us"; "reissues" ]
    [
      [
        "request timeout (PR2 baseline)"; "20,000 cyc timeout"; commas t_win;
        f1 (us_of_cycles t_win); i t_fo;
      ];
      [
        "heartbeat watchdog";
        (match w_detect with
        | Some d -> commas d ^ " cyc after kill"
        | None -> "none");
        commas w_win; f1 (us_of_cycles w_win); i w_fo;
      ];
    ];
  Printf.printf
    "(the watchdog declares the board dead from missed heartbeats and\n\
    \ pushes Cluster.on_board_down: clients reshard and reissue in-flight\n\
    \ work at once instead of waiting out each request's timeout)\n";

  subhead "E13c: flight recorder — postmortem from an injected fail-stop";
  let dumped, retained, total, cap, last_is_fault = e13c_run () in
  table
    [ "dumped"; "events retained"; "events seen"; "ring cap"; "tail is fault" ]
    [
      [
        (if dumped then "yes -> " ^ e13c_postmortem else "no");
        i retained; i total; i cap;
        (if last_is_fault then "yes" else "NO");
      ];
    ];
  if !obs_enabled then e13_obs ()
