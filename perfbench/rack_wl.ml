(* The rack workloads: four boards behind the ToR switch, one KV replica
   per board, four closed-loop shard clients with 16 requests
   outstanding each, a seeded Zipf-skewed key stream mixing PUTs with
   GETs.

   - rack-kv: no telemetry plane and no fault, on Par_sim Seq (the
     canonical windowed schedule). Meshes are mostly parked, so the
     engine's parking and fast-forward path carries the load.
   - rack-ops: rack-kv plus the management plane: Rack_health
     heartbeats, Collector push agents at the default period, sampled
     spans, periodic registry sampling, a seeded kill/restore of one
     board, then the JSON exports.
   - rack-kv-par: rack-kv's exact inputs on Par_sim Par with 2 domains;
     its digest must equal rack-kv's. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Mesh = Apiary_noc.Mesh
module Router = Apiary_noc.Router
module Kernel = Apiary_core.Kernel
module Monitor = Apiary_core.Monitor
module Kv = Apiary_accel.Kv
module Switch = Apiary_net.Switch
module Cluster = Apiary_cluster.Cluster
module Node = Apiary_cluster.Node
module Directory = Apiary_cluster.Directory
module Shard_client = Apiary_cluster.Shard_client
module Rack_health = Apiary_cluster.Rack_health
module Collector = Apiary_cluster.Collector
module Agent = Apiary_obs.Agent
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Export = Apiary_obs.Export

type variant = Kv_only | Ops

let boards = 4
let clients = 4
let concurrency = 16
let keys = 4096
let zipf_theta = 0.99
let put_share = 0.25
let value_bytes = 64
let stream_len = 4096
let load_start = 1_000
let load_cycles = 200_000
let slice = 10_000

(* After the clients stop, every outstanding request resolves within
   the shard client's 25,000-cycle timeout; the agents get three
   periods to ship their tail plus time for the wire to drain. *)
let drain = 30_000
let registry_period = 20_000

(* Ethernet cost of an agent batch beyond its payload (header, FCS,
   preamble and gap), and a 100G uplink's bytes per cycle. *)
let frame_overhead = 40
let uplink_bytes_per_cycle = 50

(* The seeded request stream of one client: work item [n] is entry
   [n mod stream_len], pre-encoded so the generator callback only
   indexes. *)
let stream ~seed ~client =
  let rng = Rng.create ~seed:((seed * 7919) + client + 1) in
  Array.init stream_len (fun _ ->
      let k = Rng.zipf rng ~n:keys ~theta:zipf_theta in
      let key = Printf.sprintf "k%05d" k in
      let req =
        if Rng.chance rng put_share then Kv.Proto.Put (key, Rng.bytes rng value_bytes)
        else Kv.Proto.Get key
      in
      (key, Kv.Proto.encode_req req))

type fault = { victim : int; kill_at : int; restore_at : int }

let fault ~seed =
  let rng = Rng.create ~seed:((seed * 104729) + 17) in
  let kill_at = load_start + (load_cycles / 4) + Rng.int rng (load_cycles / 8) in
  {
    victim = Rng.int rng boards;
    kill_at;
    restore_at = kill_at + (load_cycles / 5) + Rng.int rng (load_cycles / 10);
  }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let round ~variant ~mode ~domains ~seed =
  let load_end = load_start + load_cycles in
  let end_cycle = load_end + drain in
  let streams = Array.init clients (fun client -> stream ~seed ~client) in
  let fault = fault ~seed in
  let ok_outcomes = ref 0 and failed_outcomes = ref 0 in
  let gc0 = Round.gc_mark () in
  let setup, setup_s =
    Round.timed (fun () ->
        let eng =
          Tracer.span ~layer:"engine" ~name:"setup" (fun () ->
              Par_sim.create ~mode ~adaptive:true ~domains
                ~lookahead:Cluster.lookahead ~n:(boards + 1) ())
        in
        let sim = Par_sim.sim eng 0 in
        if variant = Ops then
          Tracer.span ~layer:"obs" ~name:"setup" (fun () ->
              Registry.clear ();
              Span.reset ();
              Span.set_sampling ~head_mod:8 ~slow_cycles:20_000 ();
              Span.set_enabled true);
        let cluster =
          Tracer.span ~layer:"cluster" ~name:"setup" (fun () ->
              Cluster.create ~engine:eng sim ~boards)
        in
        let kv_stats =
          List.init boards (fun b ->
              let behavior, st =
                Tracer.span ~layer:"accel" ~name:"setup" (fun () -> Kv.behavior ())
              in
              Tracer.span ~layer:"cluster" ~name:"setup" (fun () ->
                  ignore (Cluster.install cluster ~board:b ~service:"kv" behavior));
              st)
        in
        let shard_clients =
          List.init clients (fun i ->
              let s = streams.(i) in
              let gen n =
                Tracer.span ~layer:"bench" ~name:"gen" (fun () -> s.(n mod stream_len))
              in
              let c =
                Tracer.span ~layer:"cluster" ~name:"setup" (fun () ->
                    Shard_client.create cluster ~service:"kv" ~op:Kv.Proto.opcode
                      ~route:Shard_client.By_key ~gen)
              in
              Shard_client.set_on_outcome c (fun ~now:_ ~req:_ ~latency ->
                  Tracer.span ~layer:"bench" ~name:"outcome" (fun () ->
                      match latency with
                      | Some _ -> incr ok_outcomes
                      | None -> incr failed_outcomes));
              c)
        in
        let ops =
          match variant with
          | Kv_only -> None
          | Ops ->
            let health =
              Tracer.span ~layer:"cluster" ~name:"setup" (fun () ->
                  Rack_health.create cluster)
            in
            let col =
              Tracer.span ~layer:"obs" ~name:"setup" (fun () ->
                  Cluster.register_metrics cluster;
                  List.iter Shard_client.register_metrics shard_clients;
                  Collector.create ~agent_until:(load_end + (3 * Agent.default_period))
                    cluster)
            in
            Sim.every sim ~start:registry_period registry_period (fun () ->
                Tracer.span ~layer:"obs" ~name:"registry_sample" Registry.sample);
            Sim.at sim fault.kill_at (fun () ->
                Tracer.span ~layer:"cluster" ~name:"kill" (fun () ->
                    Cluster.kill cluster ~board:fault.victim));
            Sim.at sim fault.restore_at (fun () ->
                Tracer.span ~layer:"cluster" ~name:"restore" (fun () ->
                    Cluster.restore cluster ~board:fault.victim));
            Some (health, col)
        in
        Sim.at sim load_start (fun () ->
            Tracer.span ~layer:"cluster" ~name:"start" (fun () ->
                List.iter (fun c -> Shard_client.start c ~concurrency) shard_clients));
        Sim.at sim load_end (fun () ->
            Tracer.span ~layer:"cluster" ~name:"stop" (fun () ->
                List.iter Shard_client.stop shard_clients));
        (eng, cluster, kv_stats, shard_clients, ops))
  in
  let eng, cluster, kv_stats, shard_clients, ops = setup in
  let setup_heap_words = (Gc.quick_stat ()).Gc.heap_words in
  Apiary_engine.Profile.reset ();
  let ticks0 = Sim.total_active_ticks () and skipped0 = Sim.total_skipped_ticks () in
  let a0 = Round.alloc_words () in
  let (), run_s =
    Round.timed (fun () ->
        while Par_sim.now eng < end_cycle do
          Tracer.span ~layer:"engine" ~name:"run_slice" (fun () ->
              Par_sim.run_until eng (min end_cycle (Par_sim.now eng + slice)))
        done;
        Par_sim.shutdown eng)
  in
  let run_alloc_words = Round.alloc_words () -. a0 in
  let active_ticks = Sim.total_active_ticks () - ticks0 in
  let skipped_ticks = Sim.total_skipped_ticks () - skipped0 in
  let nodes = Cluster.nodes cluster in
  let meshes = List.map (fun n -> Kernel.mesh (Node.kernel n)) nodes in
  let monitors =
    List.concat_map
      (fun n ->
        let k = Node.kernel n in
        List.init (Kernel.n_tiles k) (Kernel.monitor k))
      nodes
  in
  (* Readout: the exports, then reading every result the digest and
     the checks need. *)
  let t_readout = Unix.gettimeofday () in
  let exports =
    match ops with
    | None -> []
    | Some (_, col) ->
      let export name f = Tracer.span ~layer:"obs" ~name:"export" (fun () -> (name, f ())) in
      (* The profiler's wall-time gauges are the one non-simulated
         entry in the registry. *)
      let registry =
        List.filter
          (fun (n, _) -> not (String.starts_with ~prefix:"prof." n))
          (Registry.snapshot ())
      in
      [
        export "metrics" (fun () -> Export.metrics_json_string registry);
        export "trace" (fun () ->
            Export.chrome_trace_string ~dropped:(Span.dropped ()) (Span.events ()));
        export "collector.conservation" (fun () -> Collector.conservation_json_string col);
        export "collector.trace" (fun () -> Collector.trace_json_string col);
        export "collector.exemplars" (fun () -> Collector.exemplars_json_string col);
      ]
  in
  let cycles = Par_sim.now eng in
  let issued = sum Shard_client.issued shard_clients in
  let completed = sum Shard_client.completed shard_clients in
  let errors = sum Shard_client.errors shard_clients in
  let failovers = sum Shard_client.failovers shard_clients in
  let lat = Stats.Histogram.create "rack.latency" in
  List.iter
    (fun c -> Stats.Histogram.merge_into ~src:(Shard_client.latency c) ~dst:lat)
    shard_clients;
  let hops = Stats.Histogram.create "rack.hops" in
  List.iter (fun m -> Stats.Histogram.merge_into ~src:(Mesh.hop_histogram m) ~dst:hops) meshes;
  let flits = sum Mesh.flits_routed meshes in
  let busy =
    sum (fun m -> sum (fun c -> Router.busy_cycles (Mesh.router_at m c)) (Mesh.coords m)) meshes
  in
  let routers = sum (fun m -> List.length (Mesh.coords m)) meshes in
  let kv f = sum f kv_stats in
  let served = kv (fun s -> s.Kv.gets + s.Kv.puts) in
  let sw = Cluster.switch cluster in
  let dir = Cluster.directory cluster in
  let msgs = sum (fun n -> Kernel.total_msgs (Node.kernel n)) nodes in
  let lines =
    [
      Printf.sprintf "rack cycles=%d" cycles;
      Printf.sprintf "outcomes ok=%d failed=%d" !ok_outcomes !failed_outcomes;
      Printf.sprintf "switch fwd=%d flood=%d drop=%d" (Switch.frames_forwarded sw)
        (Switch.frames_flooded sw) (Switch.frames_dropped sw);
      Printf.sprintf "dir lookups=%d hits=%d inval=%d" (Directory.lookups dir)
        (Directory.cache_hits dir) (Directory.invalidations dir);
    ]
    @ List.mapi
        (fun i c ->
          Printf.sprintf "client%d issued=%d completed=%d errors=%d failovers=%d live=%s lat %s"
            i (Shard_client.issued c) (Shard_client.completed c)
            (Shard_client.errors c) (Shard_client.failovers c)
            (String.concat "," (List.map string_of_int (Shard_client.live_boards c)))
            (Round.hist_text (Shard_client.latency c)))
        shard_clients
    @ List.map2
        (fun n (s : Kv.stats) ->
          let k = Node.kernel n in
          let m = Kernel.mesh k in
          let ns = Node.net_stats n in
          Printf.sprintf
            "board%d kv=%d/%d/%d/%d/%d/%d msgs=%d denied=%d dropped=%d mesh=%d/%d/%d net=%d/%d/%d/%d"
            (Node.id n) s.gets s.puts s.dels s.misses s.corruptions s.oom
            (Kernel.total_msgs k) (Kernel.total_denied k) (Kernel.total_dropped k)
            (Mesh.packets_sent m) (Mesh.packets_delivered m) (Mesh.flits_routed m)
            ns.rx_frames ns.tx_frames ns.bad_frames ns.unavailable)
        nodes kv_stats
    @ (match ops with
      | None -> []
      | Some (health, _) ->
        Printf.sprintf "health hb=%d detections=%s" (Rack_health.heartbeats_seen health)
          (String.concat ","
             (List.map
                (fun (c, b) -> Printf.sprintf "%d@%d" b c)
                (Rack_health.detections health)))
        :: List.map (fun (name, s) -> name ^ " " ^ Digest.to_hex (Digest.string s)) exports)
  in
  let conservation =
    match ops with
    | None -> []
    | Some (_, col) ->
      List.init boards (fun b ->
          let a = Collector.agent col b in
          let delivered = Collector.delivered col ~board:b in
          let lost = Agent.sent_records a - delivered in
          ( Printf.sprintf "obs.collector_books_close.b%d" b,
            Agent.emitted a = delivered + Agent.dropped a + lost + Agent.queued a
            && lost = Collector.lost_records_detected col ~board:b ))
  in
  let checks =
    [
      ("cluster.client_books_balance", issued = completed + errors + failovers);
      ("cluster.outcomes_match", !ok_outcomes = completed);
      ("accel.kv.corruptions_zero", kv (fun s -> s.Kv.corruptions) = 0);
      ("accel.kv.oom_zero", kv (fun s -> s.Kv.oom) = 0);
      (* Without a fault every completed request was served exactly once. *)
      ("accel.kv.served_eq_completed", variant = Ops || served = completed);
      ("engine.reached_end", cycles = end_cycle);
    ]
    @ conservation
  in
  let digest = Round.digest_of lines in
  let readout_s = Unix.gettimeofday () -. t_readout in
  let gc1 = Round.gc_mark () in
  let layer () =
    let frames = Switch.frames_forwarded sw in
    let f = float_of_int in
    let per_op x = f x /. f (max 1 completed) in
    let windows, _, _ = Par_sim.window_stats eng in
    let skipped_cycles = sum (fun i -> Sim.cycles_skipped (Par_sim.sim eng i)) (List.init (boards + 1) Fun.id) in
    let agents, hb, col_frames, detect =
      match ops with
      | None -> ([], 0, 0, 0)
      | Some (health, col) ->
        ( List.init boards (Collector.agent col),
          Rack_health.heartbeats_seen health,
          Collector.rx_frames col,
          match
            List.find_opt (fun (c, b) -> b = fault.victim && c >= fault.kill_at)
              (Rack_health.detections health)
          with
          | Some (c, _) -> c - fault.kill_at
          | None -> 0 )
    in
    let agent g = f (sum g agents) in
    Round.common_layer ~run_s ~domains:(Par_sim.domains_used eng) ~cycles
      ~member_cycles:(cycles * (boards + 1))
      ~active_ticks ~skipped_ticks ~skipped_cycles ~setup_heap_words ~gc0 ~gc1
    @ [
        ("engine.windows_per_mcycle", 1e6 *. f windows /. f (max 1 cycles));
        ("engine.barrier_stall_s", Par_sim.barrier_stall_s eng);
        ("noc.host_ns_per_flit", 1e9 *. run_s /. f (max 1 flits));
        ("noc.alloc_words_per_flit", run_alloc_words /. f (max 1 flits));
        ("noc.flits_routed", f flits);
        ("noc.router_busy_frac", f busy /. f (max 1 (routers * cycles)));
        ("noc.hops_mean", Stats.Histogram.mean hops);
        ("core.msgs_per_op", per_op msgs);
        ("core.denied", f (sum (fun n -> Kernel.total_denied (Node.kernel n)) nodes));
        ("core.dropped", f (sum (fun n -> Kernel.total_dropped (Node.kernel n)) nodes));
        ("core.rate_stalls", f (sum Monitor.rate_stalls monitors));
        ("accel.kv.gets", f (kv (fun s -> s.Kv.gets)));
        ("accel.kv.puts", f (kv (fun s -> s.Kv.puts)));
        ("accel.kv.misses", f (kv (fun s -> s.Kv.misses)));
        ("accel.kv.corruptions", f (kv (fun s -> s.Kv.corruptions)));
        ("net.switch.frames_forwarded", f frames);
        ("net.switch.frames_dropped", f (Switch.frames_dropped sw));
        ("net.frames_per_op", per_op frames);
        ("net.host_ns_per_frame", 1e9 *. run_s /. f (max 1 frames));
        ("net.mgmt_frame_share", f (hb + col_frames) /. f (max 1 frames));
        ("cluster.client.useful_frac", f completed /. f (max 1 issued));
        ("cluster.client.failovers", f failovers);
        ( "cluster.dir.cache_hit_frac",
          f (Directory.cache_hits dir) /. f (max 1 (Directory.lookups dir)) );
        ("cluster.dir.invalidations", f (Directory.invalidations dir));
        ("cluster.health.detect_cycles", f detect);
        ("cluster.setup_s", Tracer.total ~name:"setup" "cluster");
        ("cluster.span_self_s", Tracer.self_time "cluster");
        ("accel.span_self_s", Tracer.self_time "accel");
        ("obs.agent.sent_batches", agent Agent.sent_batches);
        ("obs.agent.sent_bytes", agent Agent.sent_bytes);
        ("obs.agent.dropped", agent Agent.dropped);
        ( "obs.agent.uplink_share",
          (agent Agent.sent_bytes +. (f frame_overhead *. agent Agent.sent_batches))
          /. f (max 1 (boards * cycles * uplink_bytes_per_cycle)) );
        ("obs.span.count", f (Span.count ()));
        ("obs.span.dropped", f (Span.dropped ()));
        ("obs.readout_s", Tracer.total ~name:"export" "obs");
        ("obs.setup_s", Tracer.total ~name:"setup" "obs");
        ("obs.span_self_s", Tracer.self_time "obs");
      ]
  in
  let layer = if !Tracer.on then layer () else [] in
  (match ops with
  | None -> ()
  | Some (_, col) ->
    Collector.detach col;
    Span.set_enabled false;
    Span.set_sampling ();
    Span.reset ();
    Registry.clear ());
  {
    Round.setup_s;
    run_s;
    readout_s;
    cycles;
    run_alloc_words;
    attempted = issued;
    completed;
    load_cycles;
    latency = lat;
    digest;
    checks;
    layer;
    domains = Par_sim.domains_used eng;
  }
