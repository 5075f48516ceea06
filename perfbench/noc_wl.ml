(* noc-saturate: one 8x8 mesh on a monolithic Sim, driven open-loop by
   Bernoulli uniform-random 32 B packets just under the uniform
   saturation point, then drained. Every router and NIC is busy every
   cycle and no board, network, cluster or obs code runs. *)

module Sim = Apiary_engine.Sim
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Mesh = Apiary_noc.Mesh
module Router = Apiary_noc.Router
module Traffic = Apiary_noc.Traffic

let side = 8

(* Packets per tile per cycle. A 32 B packet is 3 flits (head plus two
   16 B payload flits), so this offers 0.24 flits/cycle/tile against
   the 0.31 that E3 measures as the 8x8 uniform saturation point. *)
let rate = 0.08

let slice = 1_000
let max_drain_slices = 50

let load_cycles = 20_000

let round ~seed =
  let gc0 = Round.gc_mark () in
  let (sim, mesh, gen), setup_s =
    Round.timed (fun () ->
        let sim = Tracer.span ~layer:"engine" ~name:"setup" Sim.create in
        let mesh : int Mesh.t =
          Tracer.span ~layer:"noc" ~name:"setup" (fun () ->
              Mesh.create sim { Mesh.default_config with Mesh.cols = side; rows = side })
        in
        let gen =
          Tracer.span ~layer:"noc" ~name:"setup" (fun () ->
              Traffic.start mesh ~rng:(Rng.create ~seed) ~pattern:Traffic.Uniform
                ~rate ~payload_bytes:32 ~payload:0 ())
        in
        (sim, mesh, gen))
  in
  let setup_heap_words = (Gc.quick_stat ()).Gc.heap_words in
  Apiary_engine.Profile.reset ();
  let ticks0 = Sim.total_active_ticks () and skipped0 = Sim.total_skipped_ticks () in
  let a0 = Round.alloc_words () in
  let run_slice () =
    Tracer.span ~layer:"engine" ~name:"run_slice" (fun () ->
        Sim.run_until sim (Sim.now sim + slice))
  in
  let drained () =
    Mesh.tx_backlog mesh = 0 && Mesh.packets_delivered mesh = Mesh.packets_sent mesh
  in
  let (), run_s =
    Round.timed (fun () ->
        for _ = 1 to load_cycles / slice do
          run_slice ()
        done;
        Traffic.stop_gen gen;
        let k = ref 0 in
        while (not (drained ())) && !k < max_drain_slices do
          run_slice ();
          incr k
        done)
  in
  let run_alloc_words = Round.alloc_words () -. a0 in
  let active_ticks = Sim.total_active_ticks () - ticks0 in
  let skipped_ticks = Sim.total_skipped_ticks () - skipped0 in
  let cycles = Sim.now sim in
  let t_readout = Unix.gettimeofday () in
  let offered = Traffic.offered gen in
  let sent = Mesh.packets_sent mesh in
  let delivered = Mesh.packets_delivered mesh in
  let flits = Mesh.flits_routed mesh in
  let lat = Mesh.latency mesh in
  let hops = Mesh.hop_histogram mesh in
  let busy =
    List.fold_left (fun a c -> a + Router.busy_cycles (Mesh.router_at mesh c)) 0 (Mesh.coords mesh)
  in
  let digest =
    Round.digest_of
      [
        Printf.sprintf "noc-saturate cycles=%d offered=%d sent=%d delivered=%d flits=%d busy=%d"
          cycles offered sent delivered flits busy;
        "latency " ^ Round.hist_text lat;
        "hops " ^ Round.hist_text hops;
      ]
  in
  let checks =
    [
      ("noc.offered_eq_sent", offered = sent);
      ("noc.drained_offered_eq_delivered", delivered = offered);
      ("noc.tx_backlog_zero", Mesh.tx_backlog mesh = 0);
    ]
  in
  let readout_s = Unix.gettimeofday () -. t_readout in
  let gc1 = Round.gc_mark () in
  let layer =
    Round.common_layer ~run_s ~domains:1 ~cycles ~member_cycles:cycles ~active_ticks
      ~skipped_ticks ~skipped_cycles:(Sim.cycles_skipped sim) ~setup_heap_words
      ~gc0 ~gc1
    @ [
        ("noc.host_ns_per_flit", 1e9 *. run_s /. float_of_int (max 1 flits));
        ("noc.alloc_words_per_flit", run_alloc_words /. float_of_int (max 1 flits));
        ("noc.flits_routed", float_of_int flits);
        ( "noc.router_busy_frac",
          float_of_int busy /. float_of_int (side * side * max 1 cycles) );
        ("noc.hops_mean", Stats.Histogram.mean hops);
        ("noc.span_self_s", Tracer.self_time "noc");
      ]
  in
  {
    Round.setup_s;
    run_s;
    readout_s;
    cycles;
    run_alloc_words;
    attempted = offered;
    completed = delivered;
    load_cycles;
    latency = lat;
    digest;
    checks;
    layer = (if !Tracer.on then layer else []);
    domains = 1;
  }
