(* E12 — multi-board rack: sharded scale-out, cross-board invocation
   penalty, and a failover drill.

   The paper's setting is network-attached FPGAs in a datacenter; E7/E11
   measured one board. Here N full Apiary boards share one ToR switch
   (lib/cluster), services register in a rack directory, and external
   clients shard a request stream across boards with client-side
   failover. APIARY_SMALL=1 shrinks the sweep for CI smoke runs. *)

module Sim = Apiary_engine.Sim
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Shell = Apiary_core.Shell
module Kv = Apiary_accel.Kv
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Shard_client = Apiary_cluster.Shard_client
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Export = Apiary_obs.Export
module Series = Apiary_obs.Series
open Bench_util

let bytes_of n = Bytes.make n 'x'

(* The parallel engine already owns the cores; nesting sweep-level
   domain parallelism on top would oversubscribe them. *)
let sweep_map f items =
  if par_mode () = `Boards then List.map f items else parallel_map f items

(* Deterministic keyed KV workload: work item [n] touches key
   [n mod 167]; even items PUT, odd items GET. *)
let kv_gen value_bytes n =
  let key = Printf.sprintf "k%03d" (n mod 167) in
  let req =
    if n land 1 = 0 then Kv.Proto.Put (key, bytes_of value_bytes)
    else Kv.Proto.Get key
  in
  (key, Kv.Proto.encode_req req)

(* ------------------------------------------------------------------ *)
(* E12a — sharded KV: aggregate throughput and latency vs board count.
   One KV replica per board (each owning a keyspace slice via the
   consistent-hash ring) and one closed-loop client per board, so both
   offered load and serving capacity scale with N. *)

let e12a_run ~boards ~duration =
  with_rack ~boards ~clients:boards ~duration (fun sim cluster ->
      for b = 0 to boards - 1 do
        ignore
          (Cluster.install cluster ~board:b ~service:"kv" (fst (Kv.behavior ())))
      done;
      let clients =
        List.init boards (fun _ ->
            Shard_client.create cluster ~service:"kv" ~op:Kv.Proto.opcode
              ~route:Shard_client.By_key ~gen:(kv_gen 64))
      in
      Sim.after sim 3_000 (fun () ->
          List.iter (fun c -> Shard_client.start c ~concurrency:16) clients);
      fun () ->
        List.iter Shard_client.stop clients;
        let lat = Stats.Histogram.create "e12a" in
        List.iter
          (fun c ->
            Stats.Histogram.merge_into ~src:(Shard_client.latency c) ~dst:lat)
          clients;
        let ops =
          List.fold_left (fun a c -> a + Shard_client.completed c) 0 clients
        in
        (ops, p50 lat, p99 lat))

(* ------------------------------------------------------------------ *)
(* E12b — the cost of location transparency: the same service invoked
   through the same Cluster.connect/call API from a board that hosts a
   replica (resolves Local) and from one that doesn't (resolves Remote,
   via netsvc + ToR). Companion to E11's fabric-vs-network gap. *)

(* Board-shell-driven connect/call — the workload the replicated
   directory unlocked for partitioned runs: each caller resolves from
   its own board's replica, so under APIARY_PAR=boards the two callers
   live on different domains. *)
let e12b_run ~duration =
  with_rack ~boards:2 ~clients:0 ~duration (fun _sim cluster ->
      ignore
        (Cluster.install cluster ~board:0 ~service:"ctl"
           (Accels.echo ~service:"ctl" ~cost:4 ()));
      let caller board h =
        Shell.behavior "caller" ~on_boot:(fun sh ->
            Sim.after (Shell.sim sh) 3_000 (fun () ->
                Cluster.connect cluster ~board sh ~service:"ctl" (fun r ->
                    match r with
                    | Error _ -> ()
                    | Ok target ->
                      let rec go () =
                        let t0 = Shell.now sh in
                        Cluster.call cluster ~board sh target ~op:Accels.op_echo
                          (bytes_of 32) (fun _ ->
                            Stats.Histogram.record h (Shell.now sh - t0);
                            go ())
                      in
                      go ())))
      in
      let local_h = Stats.Histogram.create "local" in
      let remote_h = Stats.Histogram.create "remote" in
      ignore (Cluster.install cluster ~board:0 (caller 0 local_h));
      ignore (Cluster.install cluster ~board:1 (caller 1 remote_h));
      fun () -> (p50 local_h, p50 remote_h))

(* ------------------------------------------------------------------ *)
(* E12c — stateless scale-out: one video encoder per board behind
   round-robin spreading (E7a's intra-board sweep, taken cross-board). *)

let e12c_run ~boards ~duration =
  with_rack ~boards ~clients:boards ~duration (fun sim cluster ->
      for b = 0 to boards - 1 do
        ignore
          (Cluster.install cluster ~board:b ~service:"enc"
             (Accels.video_encoder ~service:"enc" ()))
      done;
      let chunk =
        let rng = Rng.create ~seed:11 in
        Rng.bytes_compressible rng 1024 ~redundancy:0.85
      in
      let clients =
        List.init boards (fun _ ->
            Shard_client.create cluster ~service:"enc" ~op:Accels.op_encode
              ~route:Shard_client.Round_robin ~gen:(fun _ -> ("", chunk)))
      in
      Sim.after sim 3_000 (fun () ->
          List.iter (fun c -> Shard_client.start c ~concurrency:16) clients);
      fun () ->
        List.iter Shard_client.stop clients;
        List.fold_left (fun a c -> a + Shard_client.completed c) 0 clients)

(* ------------------------------------------------------------------ *)
(* E12d — failover drill: kill one of four boards mid-run, watch the
   clients time out, reshard onto the three survivors and carry on; then
   bring the board back and watch it re-admitted. No operator anywhere:
   detection is client-side timeout, recovery is the cluster's
   re-registration announcement. *)

let e12d_run ~duration ~kill_at ~restore_at ~interval =
  let boards = 4 in
  let victim = 2 in
  let series = Stats.Series.create "e12d" ~interval in
  let clients =
    with_rack ~boards ~clients:boards ~duration (fun sim cluster ->
        for b = 0 to boards - 1 do
          ignore
            (Cluster.install cluster ~board:b ~service:"kv"
               (fst (Kv.behavior ())))
        done;
        let clients =
          List.init boards (fun _ ->
              Shard_client.create cluster ~timeout:20_000 ~service:"kv"
                ~op:Kv.Proto.opcode ~route:Shard_client.By_key ~gen:(kv_gen 64))
        in
        List.iter
          (fun c ->
            Shard_client.set_on_complete c (fun ~now ->
                Stats.Series.record series ~now 1.0))
          clients;
        Sim.after sim 3_000 (fun () ->
            List.iter (fun c -> Shard_client.start c ~concurrency:8) clients);
        (* Failure injection and recovery both run on the rack simulator
           (member 0): switch port state, directory and ring mutations
           never leave that member. *)
        Sim.after sim kill_at (fun () -> Cluster.kill cluster ~board:victim);
        Sim.after sim restore_at (fun () ->
            Cluster.restore cluster ~board:victim);
        fun () ->
          List.iter Shard_client.stop clients;
          clients)
  in
  let buckets = Stats.Series.buckets series in
  let avg_over lo hi =
    let sel =
      List.filter (fun (t, _) -> t >= lo && t + interval <= hi) buckets
    in
    match sel with
    | [] -> 0.0
    | sel ->
      List.fold_left (fun a (_, v) -> a +. v) 0.0 sel
      /. float_of_int (List.length sel)
  in
  let pre = avg_over (kill_at / 2) kill_at in
  (* Degraded window: from the kill until the first bucket back at ≥90%
     of the pre-kill per-bucket rate (resharding onto survivors). *)
  let recovered_at =
    let rec scan = function
      | [] -> restore_at
      | (t, v) :: rest ->
        if t >= kill_at && v >= 0.9 *. pre then t else scan rest
    in
    scan buckets
  in
  let degraded = avg_over kill_at recovered_at in
  let resharded = avg_over recovered_at restore_at in
  let post = avg_over (restore_at + (2 * interval)) duration in
  let failovers =
    List.fold_left (fun a c -> a + Shard_client.failovers c) 0 clients
  in
  let survivors = Shard_client.live_boards (List.hd clients) in
  (pre, degraded, resharded, post, recovered_at - kill_at, failovers, survivors)

(* ------------------------------------------------------------------ *)
(* Telemetry capture (--obs). Two dedicated fixed-seed racks, run like
   every other rack; the exports are byte-stable in every engine mode
   because Export orders same-cycle spans per board:

   - e12o: a single cross-board KV call, exported as a Chrome trace.
     Grouping on the caller's corr id reconstructs the journey — the
     cluster "call" and monitor "rpc" on board 1, the netsvc "remote"
     with its req_id, the ToR "fwd", and (joining on req_id) board 0's
     "serve" plus the kv tile's fabric RPC with per-hop NoC spans.

   - e12d at full drill scale with spans + the metrics registry + a
     windowed latency series attached: deterministic head sampling
     (hash(corr) mod N, plus always-keep tail rules for slow/error
     spans) keeps the whole 600k-cycle drill inside the span cap with
     zero drops, and the series export shows the kill as a p999 spike
     and throughput dip, window by window. *)

let e12_obs_call () =
  Span.reset ();
  Span.set_enabled true;
  let status = ref "no reply" in
  with_rack ~boards:2 ~clients:0 ~duration:60_000 (fun _sim cluster ->
      ignore
        (Cluster.install cluster ~board:0 ~service:"kv" (fst (Kv.behavior ())));
      let caller =
        Shell.behavior "caller" ~on_boot:(fun sh ->
            Sim.after (Shell.sim sh) 2_000 (fun () ->
                Cluster.connect cluster ~board:1 sh ~service:"kv" (fun r ->
                    match r with
                    | Error e -> status := Shell.rpc_error_to_string e
                    | Ok target ->
                      Cluster.call cluster ~board:1 sh target
                        ~op:Kv.Proto.opcode
                        (Kv.Proto.encode_req
                           (Kv.Proto.Put ("k001", bytes_of 64)))
                        (fun r ->
                          status :=
                            (match r with
                            | Ok _ -> "ok"
                            | Error e -> Shell.rpc_error_to_string e)))))
      in
      ignore (Cluster.install cluster ~board:1 caller);
      fun () -> ());
  Span.set_enabled false;
  Export.chrome_trace ~path:"BENCH_obs_call_trace.json" (Span.events ());
  Printf.printf "obs: one cross-board kv call (%s), %d spans -> %s\n" !status
    (Span.count ()) "BENCH_obs_call_trace.json";
  Span.reset ()

let e12_obs_drill () =
  Registry.clear ();
  Span.reset ();
  (* Deterministic sampling is what lets the capture run at full drill
     scale: keep 1-in-8 corr families head-on, plus every span slower
     than the client timeout or error-tagged (timeout/failover/deny). *)
  Span.set_sampling ~head_mod:8 ~slow_cycles:20_000 ();
  Span.set_enabled true;
  let duration, kill_at, restore_at, window =
    if small () then (300_000, 80_000, 180_000, 5_000)
    else (600_000, 150_000, 350_000, 10_000)
  in
  let boards = 4 and victim = 2 in
  (* Windowed rollups of every request outcome: latency distribution per
     window for the good ones, a bad-outcome count for the rest. Windows
     roll lazily on each observation, plus the close_upto at the end: a
     wake every window would defeat the engine's idle fast-forward. *)
  let series = Series.create ~window () in
  let completed =
    with_rack ~boards ~clients:boards ~duration (fun sim cluster ->
        for b = 0 to boards - 1 do
          ignore
            (Cluster.install cluster ~board:b ~service:"kv"
               (fst (Kv.behavior ())))
        done;
        let clients =
          List.init boards (fun _ ->
              Shard_client.create cluster ~timeout:20_000 ~service:"kv"
                ~op:Kv.Proto.opcode ~route:Shard_client.By_key
                ~gen:(kv_gen 64))
        in
        Cluster.register_metrics cluster;
        List.iter Shard_client.register_metrics clients;
        List.iter
          (fun c ->
            Shard_client.set_on_outcome c (fun ~now ~req:_ ~latency ->
                match latency with
                | Some l -> Series.observe series ~now "kv.latency" l
                | None -> Series.observe series ~now "kv.bad" 0))
          clients;
        Sim.after sim 3_000 (fun () ->
            List.iter (fun c -> Shard_client.start c ~concurrency:8) clients);
        Sim.after sim kill_at (fun () -> Cluster.kill cluster ~board:victim);
        Sim.after sim restore_at (fun () ->
            Cluster.restore cluster ~board:victim);
        fun () ->
          List.iter Shard_client.stop clients;
          List.fold_left (fun a c -> a + Shard_client.completed c) 0 clients)
  in
  Span.set_enabled false;
  Series.close_upto series duration;
  Export.chrome_trace ~dropped:(Span.dropped ()) ~path:"BENCH_obs_trace.json"
    (Span.events ());
  Export.metrics_json ~path:"BENCH_obs_metrics.json" (Registry.snapshot ());
  Series.write_json series "BENCH_obs_series.json";
  Printf.printf
    "obs: failover drill, %d ops, %d spans (%d sampled away, %d dropped) -> %s\n\
     obs: %d instruments -> %s\n"
    completed (Span.count ()) (Span.sampled ()) (Span.dropped ())
    "BENCH_obs_trace.json"
    (List.length (Registry.snapshot ()))
    "BENCH_obs_metrics.json";
  (* Tail latency over time, around the kill: the whole point of the
     windowed series — the p999 spike and its decay are visible without
     opening the trace. *)
  let rows =
    Series.rollups series "kv.latency"
    |> List.filter (fun (r : Series.rollup) ->
           r.Series.r_start >= kill_at - (2 * window)
           && r.Series.r_start < kill_at + (6 * window))
  in
  subhead "windowed kv latency around the kill (BENCH_obs_series.json)";
  table
    [ "window start"; "ops"; "p50"; "p99"; "p999"; "max" ]
    (List.map
       (fun (r : Series.rollup) ->
         [
           commas r.Series.r_start;
           i r.Series.r_count;
           i r.Series.r_p50;
           i r.Series.r_p99;
           i r.Series.r_p999;
           i r.Series.r_max;
         ])
       rows);
  Printf.printf "obs: %d windows x %d cycles -> %s\n"
    (Series.closed series "kv.latency")
    window "BENCH_obs_series.json";
  Span.set_sampling ();
  Span.reset ();
  Registry.clear ()

let e12_obs () =
  subhead "E12 telemetry capture (--obs)";
  e12_obs_call ();
  e12_obs_drill ()

(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12"
    "multi-board rack: sharded scale-out, remote penalty, failover drill";
  let sm = small () in
  let board_counts = if sm then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let duration = if sm then 120_000 else 300_000 in

  subhead "E12a: sharded KV, one replica + one client per board";
  let kv_results =
    sweep_map (fun boards -> e12a_run ~boards ~duration) board_counts
  in
  let base_ops =
    match kv_results with (ops, _, _) :: _ -> max 1 ops | [] -> 1
  in
  table
    [ "boards"; "ops"; "kops/s"; "speedup"; "p50 us"; "p99 us" ]
    (List.map2
       (fun boards (ops, l50, l99) ->
         [
           i boards;
           i ops;
           f1 (throughput_per_sec ~count:ops ~cycles:duration /. 1000.0);
           f2 (float_of_int ops /. float_of_int base_ops);
           f1 (us_of_cycles l50);
           f1 (us_of_cycles l99);
         ])
       board_counts kv_results);

  subhead "E12b: the same Cluster.call, local replica vs remote board";
  let l50, r50 = e12b_run ~duration:(if sm then 150_000 else 300_000) in
  table
    [ "resolution"; "RTT p50"; "us"; "vs local" ]
    [
      [ "Local (replica on own fabric)"; i l50; f1 (us_of_cycles l50); "1.0x" ];
      [ "Remote (netsvc + ToR hop)"; i r50; f1 (us_of_cycles r50);
        f1 (float_of_int r50 /. float_of_int (max 1 l50)) ^ "x" ];
    ];
  Printf.printf
    "(one cross-board hop sits between E11's fabric RTT and its\n\
    \ remote-CPU RTT: the wire is the same, but the far end is a tile,\n\
    \ not an interrupt handler)\n";

  subhead "E12c: stateless encoders, round-robin across boards";
  let enc_counts = if sm then [ 1; 2 ] else [ 1; 2; 4 ] in
  let enc_results =
    sweep_map (fun boards -> e12c_run ~boards ~duration) enc_counts
  in
  let enc_base = match enc_results with n :: _ -> max 1 n | [] -> 1 in
  table
    [ "boards"; "chunks"; "kchunks/s"; "speedup" ]
    (List.map2
       (fun boards n ->
         [
           i boards;
           i n;
           f1 (throughput_per_sec ~count:n ~cycles:duration /. 1000.0);
           f2 (float_of_int n /. float_of_int enc_base);
         ])
       enc_counts enc_results);

  subhead "E12d: failover drill (kill board 2 of 4, then bring it back)";
  let duration, kill_at, restore_at, interval =
    if sm then (300_000, 80_000, 180_000, 5_000)
    else (600_000, 150_000, 350_000, 10_000)
  in
  let pre, degraded, resharded, post, window, failovers, survivors =
    e12d_run ~duration ~kill_at ~restore_at ~interval
  in
  let kops per_bucket =
    f1 (throughput_per_sec ~count:(int_of_float per_bucket) ~cycles:interval
        /. 1000.0)
  in
  table
    [ "phase"; "kops/s" ]
    [
      [ "before kill (4 boards)"; kops pre ];
      [ "degraded window (timeouts draining)"; kops degraded ];
      [ "resharded steady state (3 boards)"; kops resharded ];
      [ "after restore (4 boards again)"; kops post ];
    ];
  Printf.printf
    "degraded window: %s cycles (%.0f us)   timeouts+reissues: %d   live boards at end: %d\n"
    (commas window)
    (us_of_cycles window)
    failovers (List.length survivors);
  Printf.printf
    "(survivors restore service on their own: client timeouts reshard the\n\
    \ keyspace, the directory drops the dead board, and recovery is a\n\
    \ re-registration announcement — no operator in the loop)\n";
  if !obs_enabled then e12_obs ()
