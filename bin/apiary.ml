(* The `apiary` command-line driver: run simulated boards and inspect the
   OS from a terminal.

     apiary run --scenario kv --cycles 300000 --clients 4
     apiary run --scenario vpipe --trace
     apiary noc --pattern hotspot --rate 0.1 --cols 8 --rows 8
     apiary area --part VU9P --tiles 16

   See README.md for a walkthrough. *)

module Sim = Apiary_engine.Sim
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Mesh = Apiary_noc.Mesh
module Coord = Apiary_noc.Coord
module Traffic = Apiary_noc.Traffic
module Kernel = Apiary_core.Kernel
module Monitor = Apiary_core.Monitor
module Statsvc = Apiary_core.Statsvc
module Health = Apiary_core.Health
module Perf = Apiary_obs.Perf
module Flight = Apiary_obs.Flight
module Kv = Apiary_accel.Kv
module Accels = Apiary_accel.Accels
module Client = Apiary_net.Client
module Netproto = Apiary_net.Netproto
module Board = Apiary_apps.Board
module Video_pipeline = Apiary_apps.Video_pipeline
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Export = Apiary_obs.Export
module Slo = Apiary_obs.Slo
module Parts = Apiary_resource.Parts
module Area = Apiary_resource.Area
module Floorplan = Apiary_resource.Floorplan
open Cmdliner

(* ------------------------------------------------------------------ *)
(* run *)

type scenario = Echo | Kv_scenario | Vpipe

let scenario_conv =
  let parse = function
    | "echo" -> Ok Echo
    | "kv" -> Ok Kv_scenario
    | "vpipe" -> Ok Vpipe
    | s -> Error (`Msg (Printf.sprintf "unknown scenario %S (echo|kv|vpipe)" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with Echo -> "echo" | Kv_scenario -> "kv" | Vpipe -> "vpipe")
  in
  Arg.conv (parse, print)

let percentiles name h =
  Printf.printf "%-18s n=%-8d p50=%-8d p99=%-8d max=%d cycles\n" name
    (Stats.Histogram.count h)
    (Stats.Histogram.percentile h 50.0)
    (Stats.Histogram.percentile h 99.0)
    (Stats.Histogram.max_value h)

(* Install the scenario's accelerators on [board] and return the
   (service, opcode, request generator) triple the clients drive.
   Shared by `apiary run` and `apiary obs`. *)
let install_scenario board scenario seed =
  let kernel = board.Board.kernel in
  match scenario with
  | Echo ->
    (match Board.user_tiles board with
    | t :: _ -> Kernel.install kernel ~tile:t (Accels.echo ())
    | [] -> ());
    ("echo", Accels.op_echo, fun _ -> Bytes.make 64 'e')
  | Kv_scenario ->
    let kv_b, _ = Kv.behavior () in
    (match Board.user_tiles board with
    | t :: _ -> Kernel.install kernel ~tile:t kv_b
    | [] -> ());
    let rng = Rng.create ~seed in
    ( "kv",
      Kv.Proto.opcode,
      fun _ ->
        let key = Printf.sprintf "k%d" (Rng.zipf rng ~n:200 ~theta:0.9) in
        if Rng.chance rng 0.1 then
          Kv.Proto.encode_req (Kv.Proto.Put (key, Bytes.make 128 'v'))
        else Kv.Proto.encode_req (Kv.Proto.Get key) )
  | Vpipe ->
    (match Board.user_tiles board with
    | enc :: comp :: _ ->
      Video_pipeline.install kernel ~encoder_tile:enc ~compressor_tile:comp
    | _ -> ());
    let rng = Rng.create ~seed in
    let chunk = Rng.bytes_compressible rng 1024 ~redundancy:0.85 in
    ("vpipe", Accels.op_encode, fun _ -> chunk)

let run_cmd scenario cycles clients enforce trace_on seed =
  let sim = Sim.create () in
  let kcfg =
    {
      Kernel.default_config with
      Kernel.monitor = { Monitor.default_config with Monitor.enforce };
    }
  in
  let board = Board.create ~kernel_cfg:kcfg sim in
  let kernel = board.Board.kernel in
  let flight = Kernel.flight kernel in
  (* --trace arms the board's flight ring (APIARY_FLIGHT=1 armed it at
     boot already): dump the postmortem on the first fail-stop. *)
  if trace_on then Flight.set_enabled flight true;
  Kernel.on_fault kernel (fun tile reason ->
      if Flight.enabled flight then begin
        let path = "apiary_postmortem.json" in
        Flight.write_dump flight
          ~reason:(Printf.sprintf "tile %d: %s" tile reason)
          ~cycle:(Sim.now sim) path;
        Printf.printf "flight recorder dumped -> %s\n" path
      end);
  let service, op, gen = install_scenario board scenario seed in
  let cs =
    List.init clients (fun idx ->
        let c = Board.client board ~port:(idx + 1) () in
        Sim.after sim (2_000 + (idx * 71)) (fun () ->
            Client.start_closed c { Client.service; op; gen } ~concurrency:4);
        c)
  in
  Sim.run_for sim cycles;
  List.iter Client.stop cs;
  let lat = Stats.Histogram.create "latency" in
  let total = ref 0 and errs = ref 0 in
  List.iter
    (fun c ->
      Stats.Histogram.merge_into ~src:(Client.latency c) ~dst:lat;
      total := !total + Client.completed c;
      errs := !errs + Client.errors c)
    cs;
  Printf.printf "scenario completed: %d requests (%d errors) in %d cycles (%.0f req/s)\n"
    !total !errs cycles
    (float_of_int !total /. (float_of_int cycles *. 4e-9));
  percentiles "client latency" lat;
  Printf.printf "fabric: %d messages, %d denied\n" (Kernel.total_msgs kernel)
    (Kernel.total_denied kernel);
  if trace_on then begin
    Printf.printf "\n--- last monitor events (board flight ring) ---\n";
    let evs = Flight.entries flight in
    let n = List.length evs in
    List.iteri
      (fun idx (e : Span.event) ->
        if idx >= n - 30 then begin
          Printf.printf "[%8d] tile%-3d %s/%s corr=%d" e.ts e.track e.cat e.name
            e.corr;
          List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) e.args;
          Printf.printf "\n"
        end)
      evs
  end;
  0

(* ------------------------------------------------------------------ *)
(* obs *)

let obs_cmd scenario cycles clients seed trace_out metrics_out =
  Registry.clear ();
  Span.reset ();
  Span.set_enabled true;
  let sim = Sim.create () in
  let board = Board.create sim in
  let kernel = board.Board.kernel in
  (* Free-standing board: stamp it board 0 so spans land on a named
     process row, and publish its kernel/NoC metrics under b0.*. *)
  Kernel.set_obs_board kernel 0;
  Kernel.register_metrics kernel ~prefix:"b0";
  let service, op, gen = install_scenario board scenario seed in
  let cs =
    List.init clients (fun idx ->
        let c = Board.client board ~port:(idx + 1) () in
        Sim.after sim (2_000 + (idx * 71)) (fun () ->
            Client.start_closed c { Client.service; op; gen } ~concurrency:4);
        c)
  in
  Sim.run_for sim cycles;
  List.iter Client.stop cs;
  Span.set_enabled false;
  Export.chrome_trace ~path:trace_out (Span.events ());
  Export.metrics_json ~path:metrics_out (Registry.snapshot ());
  let total =
    List.fold_left (fun acc c -> acc + Client.completed c) 0 cs
  in
  Printf.printf "obs: %s scenario, %d requests in %d cycles\n" service total
    cycles;
  Printf.printf "obs: %d spans (%d dropped) -> %s\n" (Span.count ())
    (Span.dropped ()) trace_out;
  Printf.printf "obs: %d instruments -> %s\n"
    (List.length (Registry.snapshot ()))
    metrics_out;
  Printf.printf "(open the trace in https://ui.perfetto.dev — 1 us = 1 cycle)\n";
  Span.reset ();
  Registry.clear ();
  0

(* ------------------------------------------------------------------ *)
(* top *)

(* A live per-tile counter view, htop-style, fed entirely in-band: a
   reader tile connects to the capability-gated stat service and polls
   every tile's counter block (plus the merged board summary, whose
   router columns come from the NoC blocks) over the fabric itself.
   --once renders only the final frame — the CI smoke mode. *)

let top_cmd scenario cycles clients interval once json seed slo_cycles =
  let sim = Sim.create () in
  let board = Board.create sim in
  let kernel = board.Board.kernel in
  let service, op, gen = install_scenario board scenario seed in
  (* SLO accounting rides the renders: each frame diffs the clients'
     latency histograms (count / count_le the bound) and feeds the
     deltas to a burn-rate tracker windowed on the refresh interval. *)
  let slo =
    Slo.create
      (Slo.default_objective ~window:interval ~min_samples:5 ~tenant:service
         ~latency_cycles:slo_cycles ())
  in
  let cs_ref = ref [] in
  let last_good = ref 0 and last_total = ref 0 in
  (* The scenario took user tiles from the front; take ours from the
     back so we never collide with it. *)
  let stat_tile, reader_tile =
    match List.rev (Board.user_tiles board) with
    | a :: b :: _ -> (a, b)
    | _ -> failwith "top: board too small"
  in
  ignore (Statsvc.install kernel ~tile:stat_tile);
  (* The board's hang detector: its sweeps pulse every tile's heartbeat
     counter (the hb column), and the alarms it raises on a stuck tile
     or a congested router show as the health line and the JSON
     [alarms] array. *)
  let health = Health.create kernel in
  let n = Kernel.n_tiles kernel in
  let blocks : Perf.t option array = Array.make (n + 1) None in
  let frames = ref 0 in
  (* SLO deltas are fed once per frame whatever the output mode; the
     human renderer prints on top of them, the JSON emitter reads the
     tracker after the run. *)
  let observe now =
    let total, good =
      List.fold_left
        (fun (t, g) c ->
          let h = Client.latency c in
          ( t + Stats.Histogram.count h,
            g + Stats.Histogram.count_le h slo_cycles ))
        (0, 0) !cs_ref
    in
    Slo.observe_n slo ~now ~good:(good - !last_good)
      ~bad:(total - !last_total - (good - !last_good));
    last_good := good;
    last_total := total
  in
  let render now =
    incr frames;
    if json then observe now
    else begin
      Printf.printf "\n-- apiary top: cycle %d, scenario %s (frame %d) --\n" now
        service !frames;
      Printf.printf "%-5s %-10s %8s %8s %8s %6s %6s %6s %6s %4s\n" "tile"
        "behavior" "msgs_in" "msgs_out" "syscalls" "deny" "drop" "nack" "fault"
        "hb";
      for t = 0 to n - 1 do
        match blocks.(t) with
        | None -> ()
        | Some p ->
          let r slot = Perf.read p slot in
          Printf.printf "%-5d %-10s %8d %8d %8d %6d %6d %6d %6d %4d\n" t
            (Monitor.behavior_name (Kernel.monitor kernel t))
            (r Perf.msgs_in) (r Perf.msgs_out) (r Perf.syscalls)
            (r Perf.denials) (r Perf.drops) (r Perf.nacks) (r Perf.faults)
            (r Perf.heartbeats)
      done;
      (match blocks.(n) with
      | None -> ()
      | Some p ->
        (* The Board query merges every tile's monitor block with every
           router's, so busy/flits here are the whole board's. *)
        let flits = Perf.read p Perf.flits in
        let busy = Perf.read p Perf.busy in
        Printf.printf
          "board: %d flits routed (%.3f/cycle), %d credit stalls, peak router occ %d\n"
          flits
          (float_of_int flits /. float_of_int (max 1 now))
          (Perf.read p Perf.credit_stalls)
          (Perf.read p Perf.occ_peak);
        Printf.printf
          "board: %d router-busy cycles — %.1f%% mean router utilization\n" busy
          (100.0 *. float_of_int busy /. float_of_int (max 1 (now * n)));
        observe now;
        let obj = Slo.objective slo in
        Printf.printf
          "slo:   %d/%d within %d cycles — attainment %.1f%%, budget left \
           %.1f%%, burn fast %.1f / slow %.1f%s\n"
          !last_good !last_total slo_cycles (Slo.attainment_pct slo)
          (Slo.budget_remaining_pct slo)
          (Slo.burn_rate slo ~windows:obj.Slo.fast_windows)
          (Slo.burn_rate slo ~windows:obj.Slo.slow_windows)
          (match List.length (Slo.alerts slo) with
          | 0 -> ""
          | k -> Printf.sprintf ", %d burn alerts" k));
      match List.rev (Health.alarms health) with
      | [] -> ()
      | (cycle, latest) :: _ as alarms ->
        Printf.printf "health: %d alarms, latest at cycle %d: %s\n"
          (List.length alarms) cycle
          (Health.alarm_to_string latest)
    end
  in
  (* The machine-readable view of the final frame: same counters, same
     Export string/float conventions as every BENCH_* artifact, so the
     CI gates can jq it without a scrape. *)
  let render_json now =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\"cycle\":";
    Buffer.add_string b (string_of_int now);
    Buffer.add_string b ",\"scenario\":";
    Export.buf_add_json_string b service;
    Buffer.add_string b ",\"frames\":";
    Buffer.add_string b (string_of_int !frames);
    Buffer.add_string b ",\"tiles\":[";
    let first = ref true in
    for t = 0 to n - 1 do
      match blocks.(t) with
      | None -> ()
      | Some p ->
        if not !first then Buffer.add_char b ',';
        first := false;
        let r slot = Perf.read p slot in
        Buffer.add_string b "{\"tile\":";
        Buffer.add_string b (string_of_int t);
        Buffer.add_string b ",\"behavior\":";
        Export.buf_add_json_string b
          (Monitor.behavior_name (Kernel.monitor kernel t));
        List.iter
          (fun (k, v) ->
            Buffer.add_string b ",\"";
            Buffer.add_string b k;
            Buffer.add_string b "\":";
            Buffer.add_string b (string_of_int v))
          [
            ("msgs_in", r Perf.msgs_in); ("msgs_out", r Perf.msgs_out);
            ("syscalls", r Perf.syscalls); ("denials", r Perf.denials);
            ("drops", r Perf.drops); ("nacks", r Perf.nacks);
            ("faults", r Perf.faults); ("heartbeats", r Perf.heartbeats);
          ];
        Buffer.add_char b '}'
    done;
    Buffer.add_string b "],\"board\":";
    (match blocks.(n) with
    | None -> Buffer.add_string b "null"
    | Some p ->
      let flits = Perf.read p Perf.flits in
      let busy = Perf.read p Perf.busy in
      Buffer.add_string b "{\"flits\":";
      Buffer.add_string b (string_of_int flits);
      Buffer.add_string b ",\"flits_per_cycle\":";
      Export.buf_add_float b (float_of_int flits /. float_of_int (max 1 now));
      Buffer.add_string b ",\"credit_stalls\":";
      Buffer.add_string b (string_of_int (Perf.read p Perf.credit_stalls));
      Buffer.add_string b ",\"occ_peak\":";
      Buffer.add_string b (string_of_int (Perf.read p Perf.occ_peak));
      Buffer.add_string b ",\"busy_cycles\":";
      Buffer.add_string b (string_of_int busy);
      Buffer.add_string b ",\"router_util_pct\":";
      Export.buf_add_float b
        (100.0 *. float_of_int busy /. float_of_int (max 1 (now * n)));
      Buffer.add_char b '}');
    let obj = Slo.objective slo in
    Buffer.add_string b ",\"slo\":{\"latency_cycles\":";
    Buffer.add_string b (string_of_int slo_cycles);
    Buffer.add_string b ",\"good\":";
    Buffer.add_string b (string_of_int !last_good);
    Buffer.add_string b ",\"total\":";
    Buffer.add_string b (string_of_int !last_total);
    Buffer.add_string b ",\"attainment_pct\":";
    Export.buf_add_float b (Slo.attainment_pct slo);
    Buffer.add_string b ",\"budget_remaining_pct\":";
    Export.buf_add_float b (Slo.budget_remaining_pct slo);
    Buffer.add_string b ",\"burn_fast\":";
    Export.buf_add_float b (Slo.burn_rate slo ~windows:obj.Slo.fast_windows);
    Buffer.add_string b ",\"burn_slow\":";
    Export.buf_add_float b (Slo.burn_rate slo ~windows:obj.Slo.slow_windows);
    Buffer.add_string b ",\"alerts\":";
    Buffer.add_string b (string_of_int (List.length (Slo.alerts slo)));
    Buffer.add_string b "},\"alarms\":[";
    List.iteri
      (fun i (cycle, alarm) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b "{\"cycle\":";
        Buffer.add_string b (string_of_int cycle);
        Buffer.add_string b ",\"alarm\":";
        Export.buf_add_json_string b (Health.alarm_to_string alarm);
        Buffer.add_char b '}')
      (Health.alarms health);
    Buffer.add_string b "]}\n";
    print_string (Buffer.contents b)
  in
  Kernel.install kernel ~tile:reader_tile
    (Apiary_core.Shell.behavior "top" ~on_boot:(fun sh ->
         let module Shell = Apiary_core.Shell in
         Sim.after (Shell.sim sh) 2_000 (fun () ->
             Shell.connect sh ~service:Statsvc.service_name (fun r ->
                 match r with
                 | Error _ -> ()
                 | Ok conn ->
                   (* One query at a time: a polite reader stays inside
                      its monitor's rate budget at any interval. *)
                   let rec fire qs =
                     match qs with
                     | [] ->
                       if not once then render (Shell.now sh);
                       Sim.after (Shell.sim sh) interval refresh
                     | (q, slot) :: rest ->
                       Shell.request sh conn ~opcode:Statsvc.opcode
                         (Statsvc.encode_query q) (fun r ->
                           (match r with
                           | Ok m ->
                             blocks.(slot) <-
                               Perf.decode m.Apiary_core.Message.payload
                           | Error _ -> ());
                           fire rest)
                   and refresh () =
                     fire
                       (List.init n (fun t -> (Statsvc.Tile t, t))
                       @ [ (Statsvc.Board, n) ])
                   in
                   refresh ()))));
  let cs =
    List.init clients (fun idx ->
        let c = Board.client board ~port:(idx + 1) () in
        Sim.after sim (2_000 + (idx * 71)) (fun () ->
            Client.start_closed c { Client.service; op; gen } ~concurrency:4);
        c)
  in
  cs_ref := cs;
  Sim.run_for sim cycles;
  List.iter Client.stop cs;
  if once then render cycles;
  if !frames = 0 then begin
    Printf.printf "top: no frames collected (cycles too short?)\n";
    1
  end
  else begin
    if json then render_json cycles;
    0
  end

(* ------------------------------------------------------------------ *)
(* noc *)

let pattern_conv =
  let parse = function
    | "uniform" -> Ok `Uniform
    | "hotspot" -> Ok `Hotspot
    | "transpose" -> Ok `Transpose
    | "neighbor" -> Ok `Neighbor
    | s -> Error (`Msg (Printf.sprintf "unknown pattern %S" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | `Uniform -> "uniform"
      | `Hotspot -> "hotspot"
      | `Transpose -> "transpose"
      | `Neighbor -> "neighbor")
  in
  Arg.conv (parse, print)

let noc_cmd pattern rate cols rows payload cycles qos seed =
  let sim = Sim.create () in
  let mesh : int Mesh.t =
    Mesh.create sim { Mesh.default_config with Mesh.cols; rows; qos }
  in
  let pattern =
    match pattern with
    | `Uniform -> Traffic.Uniform
    | `Hotspot -> Traffic.Hotspot (Coord.make (cols / 2) (rows / 2), 0.5)
    | `Transpose -> Traffic.Transpose
    | `Neighbor -> Traffic.Neighbor
  in
  let rng = Rng.create ~seed in
  let gen =
    Traffic.start mesh ~rng ~pattern ~rate ~payload_bytes:payload ~payload:0 ()
  in
  Sim.run_for sim cycles;
  Traffic.stop_gen gen;
  Sim.run_for sim (cycles / 4);
  Printf.printf "pattern=%s rate=%.3f mesh=%dx%d payload=%dB\n"
    (Traffic.pattern_to_string pattern)
    rate cols rows payload;
  Printf.printf "offered=%d delivered=%d (%.1f%%)\n" (Traffic.offered gen)
    (Mesh.packets_delivered mesh)
    (100.0
    *. float_of_int (Mesh.packets_delivered mesh)
    /. float_of_int (max 1 (Traffic.offered gen)));
  percentiles "packet latency" (Mesh.latency mesh);
  Printf.printf "flits routed: %d (%.3f flits/cycle/router)\n"
    (Mesh.flits_routed mesh)
    (float_of_int (Mesh.flits_routed mesh)
    /. float_of_int (cycles * cols * rows));
  0

(* ------------------------------------------------------------------ *)
(* area *)

let area_cmd part tiles cap_entries flit_bits =
  match Parts.find part with
  | None ->
    Printf.eprintf "unknown part %S; known: %s\n" part
      (String.concat ", " (List.map (fun p -> p.Parts.name) Parts.all));
    1
  | Some part ->
    let noc = { Area.vcs = 2; depth = 4; flit_bits } in
    Printf.printf "part %s: %d logic cells\n" part.Parts.name part.Parts.logic_cells;
    let per_tile = Area.per_tile noc ~cap_entries in
    Format.printf "per-tile OS hardware: %a@." Area.pp per_tile;
    (match Floorplan.plan ~part ~tiles ~noc ~cap_entries with
    | Some p -> Format.printf "%a@." Floorplan.pp_plan p
    | None -> Printf.printf "the OS alone does not fit at %d tiles\n" tiles);
    Printf.printf "max tiles with 64 kc slots: %d\n"
      (Floorplan.max_tiles ~part ~noc ~cap_entries ~min_slot_cells:64_000);
    0

(* ------------------------------------------------------------------ *)
(* sched *)

module Par_sim = Apiary_engine.Par_sim
module Cluster = Apiary_cluster.Cluster
module Shard_client = Apiary_cluster.Shard_client
module Rack_health = Apiary_cluster.Rack_health
module Collector = Apiary_cluster.Collector
module Sched = Apiary_sched.Sched
module Placer = Apiary_sched.Placer

(* A compact multi-tenant rack under the elastic scheduler: three echo
   tenants (a diurnal "web", a big-part-only "ml", a flash-crowd
   "burst") share --boards boards, the scheduler places/migrates/
   autoscales, and the decision log lands in --decisions-out. With
   --kill, a board serving web is downed mid-run and the watchdog alarm
   path re-places its tenants. The run is deterministic. The same demo
   backs `apiary slo`, which reports the tenants' error budgets and
   burn-rate alerts instead of the placement table. The rack runs on a
   sequential Par_sim engine, one member per board plus the ToR. *)

let run_sched_demo ?(echo = true) ~boards ~cycles ~kill () =
  begin
    let eng = Cluster.engine ~boards () in
    let sim = Par_sim.sim eng 0 in
    let cluster = Cluster.create ~engine:eng sim ~boards ~client_ports:5 in
    let noc = { Area.vcs = 2; depth = 4; flit_bits = 32 } in
    let slot_of part =
      match Floorplan.plan ~part ~tiles:16 ~noc ~cap_entries:16 with
      | Some p -> p.Floorplan.slot_logic_cells
      | None -> failwith "sched: OS exceeds part"
    in
    let big = slot_of Parts.vu9p and small = slot_of Parts.xc7v585t in
    let slot_cells b = if b < 2 then big else small in
    let mk name ~cells ~state ~bits ~max ~slo ~cap =
      {
        Placer.name;
        cells;
        state_bytes = state;
        bitstream_bytes = bits;
        reservation = 1;
        max_replicas = max;
        slo_cycles = slo;
        capacity_hint = cap;
      }
    in
    let specs =
      [
        mk "web" ~cells:(small / 2) ~state:4_096 ~bits:16_384 ~max:3 ~slo:5_000
          ~cap:66;
        mk "ml"
          ~cells:((big + small) / 2)  (* only fits the big-part boards *)
          ~state:65_536 ~bits:131_072 ~max:2 ~slo:25_000 ~cap:16;
        mk "burst" ~cells:(small / 3) ~state:2_048 ~bits:8_192 ~max:2 ~slo:5_000
          ~cap:66;
      ]
    in
    let behavior_of (s : Placer.tenant) () =
      Accels.echo ~service:s.Placer.name
        ~cost:(if s.Placer.name = "ml" then 1_200 else 300)
        ()
    in
    let cfg =
      {
        Sched.default_config with
        Sched.report_period = 4_000;
        hot_load = 30;
        cold_load = 12;
        cooldown = 60_000;
      }
    in
    let collector = Collector.create cluster in
    let sched = Sched.create ~config:cfg cluster ~collector ~slot_cells in
    List.iter
      (fun s -> Sched.add_tenant sched ~spec:s ~behavior:(behavior_of s))
      specs;
    let clients =
      List.map
        (fun (s : Placer.tenant) ->
          let c =
            Shard_client.create cluster ~timeout:20_000 ~service:s.Placer.name
              ~op:Accels.op_echo ~route:Shard_client.Round_robin
              ~gen:(fun _ -> ("", Bytes.make 64 'x'))
          in
          Sched.watch sched ~tenant:s.Placer.name c;
          (s, c))
        specs
    in
    Sched.start sched;
    Sched.register_metrics sched;
    let health = Rack_health.create cluster in
    let client name = List.assq (List.find (fun s -> s.Placer.name = name) specs) clients in
    let ramp name at extra =
      Sim.after sim at (fun () ->
          Shard_client.start (client name) ~concurrency:extra)
    in
    let ramp_down name at restart =
      Sim.after sim at (fun () ->
          Shard_client.stop (client name);
          Sim.after sim 6_000 (fun () ->
              Shard_client.start (client name) ~concurrency:restart))
    in
    ramp "web" 3_000 6;
    ramp "ml" 3_100 3;
    ramp "burst" 3_200 2;
    ramp "web" (cycles / 3) 12;
    ramp_down "web" (2 * cycles / 3) 2;
    ramp "burst" (cycles / 2) 16;
    ramp_down "burst" ((cycles / 2) + (cycles / 6)) 1;
    let victim = ref (-1) in
    if kill then
      Sim.after sim (cycles / 2) (fun () ->
          match Sched.placement sched ~tenant:"web" with
          | b :: _ ->
            victim := b;
            if echo then
              Printf.printf "[%8d] kill board %d (serving web)\n" (Sim.now sim)
                b;
            Cluster.kill cluster ~board:b
          | [] -> ());
    Par_sim.run_until eng cycles;
    List.iter (fun (_, c) -> Shard_client.stop c) clients;
    Collector.detach collector;
    (sched, clients, health, !victim)
  end

let sched_cmd boards cycles kill decisions_out =
  if boards < 2 then begin
    Printf.eprintf "sched: need at least 2 boards\n";
    1
  end
  else begin
    let sched, clients, health, victim =
      run_sched_demo ~boards ~cycles ~kill ()
    in
    Printf.printf "%-6s %10s %8s %6s %9s %9s\n" "tenant" "completed" "slo%"
      "repl" "failovers" "retries";
    List.iter
      (fun ((s : Placer.tenant), c) ->
        let lat = Shard_client.latency c in
        let nl = Stats.Histogram.count lat in
        let ok = Stats.Histogram.count_le lat s.Placer.slo_cycles in
        Printf.printf "%-6s %10d %7.1f%% %6d %9d %9d\n" s.Placer.name
          (Shard_client.completed c)
          (if nl = 0 then 100.0
           else 100.0 *. float_of_int ok /. float_of_int nl)
          (Sched.replicas sched ~tenant:s.Placer.name)
          (Shard_client.failovers c) (Shard_client.errors c))
      clients;
    let t = Sched.totals sched in
    Printf.printf
      "decisions: %d placements, %d migrations, %d/%d scale up/down, %d \
       deferred, %d replaced\n"
      t.Sched.placements t.Sched.migrations t.Sched.scale_ups
      t.Sched.scale_downs t.Sched.deferred t.Sched.replaced;
    if kill && victim >= 0 then
      (match List.find_opt (fun (_, b) -> b = victim) (Rack_health.detections health) with
      | Some (cyc, b) ->
        Printf.printf "watchdog: board %d declared down at cycle %d\n" b cyc
      | None -> Printf.printf "watchdog: kill not detected (run too short?)\n");
    let oc = open_out decisions_out in
    output_string oc (Sched.decisions_json sched);
    close_out oc;
    Printf.printf "decision log -> %s\n" decisions_out;
    0
  end

(* ------------------------------------------------------------------ *)
(* slo *)

let slo_cmd boards cycles kill json report_out =
  if boards < 2 then begin
    Printf.eprintf "slo: need at least 2 boards\n";
    1
  end
  else begin
    let sched, clients, _health, _victim =
      run_sched_demo ~echo:(not json) ~boards ~cycles ~kill ()
    in
    if json then begin
      (* One byte-stable document on stdout (Export conventions), jq-able
         without scraping; the report file is written either way. *)
      let b = Buffer.create 1024 in
      Buffer.add_string b "{\"cycles\":";
      Buffer.add_string b (string_of_int cycles);
      Buffer.add_string b ",\"tenants\":[";
      List.iteri
        (fun i ((s : Placer.tenant), _) ->
          if i > 0 then Buffer.add_char b ',';
          let t = Sched.slo sched ~tenant:s.Placer.name in
          let obj = Slo.objective t in
          Buffer.add_string b "{\"tenant\":";
          Export.buf_add_json_string b s.Placer.name;
          Buffer.add_string b ",\"target_pct\":";
          Export.buf_add_float b obj.Slo.target_pct;
          Buffer.add_string b ",\"good\":";
          Buffer.add_string b (string_of_int (Slo.good_total t));
          Buffer.add_string b ",\"bad\":";
          Buffer.add_string b (string_of_int (Slo.bad_total t));
          Buffer.add_string b ",\"attainment_pct\":";
          Export.buf_add_float b (Slo.attainment_pct t);
          Buffer.add_string b ",\"budget_remaining_pct\":";
          Export.buf_add_float b (Slo.budget_remaining_pct t);
          Buffer.add_string b ",\"burn_fast\":";
          Export.buf_add_float b
            (Slo.burn_rate t ~windows:obj.Slo.fast_windows);
          Buffer.add_string b ",\"burn_slow\":";
          Export.buf_add_float b
            (Slo.burn_rate t ~windows:obj.Slo.slow_windows);
          Buffer.add_string b ",\"alerts\":[";
          List.iteri
            (fun j (a : Slo.alert) ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b "{\"cycle\":";
              Buffer.add_string b (string_of_int a.Slo.a_cycle);
              Buffer.add_string b ",\"severity\":";
              Export.buf_add_json_string b
                (Slo.severity_to_string a.Slo.a_severity);
              Buffer.add_string b ",\"burn_fast\":";
              Export.buf_add_float b a.Slo.a_burn_fast;
              Buffer.add_string b ",\"burn_slow\":";
              Export.buf_add_float b a.Slo.a_burn_slow;
              Buffer.add_char b '}')
            (Slo.alerts t);
          Buffer.add_string b "]}")
        clients;
      Buffer.add_string b "]}\n";
      print_string (Buffer.contents b)
    end
    else begin
      Printf.printf "%-6s %7s %10s %6s %8s %7s %6s %6s %7s\n" "tenant" "target"
        "good" "bad" "attain%" "budget%" "fast" "slow" "alerts";
      List.iter
        (fun ((s : Placer.tenant), _) ->
          let t = Sched.slo sched ~tenant:s.Placer.name in
          let obj = Slo.objective t in
          Printf.printf "%-6s %6.1f%% %10d %6d %8.1f %7.1f %6.1f %6.1f %7d\n"
            s.Placer.name obj.Slo.target_pct (Slo.good_total t)
            (Slo.bad_total t) (Slo.attainment_pct t)
            (Slo.budget_remaining_pct t)
            (Slo.burn_rate t ~windows:obj.Slo.fast_windows)
            (Slo.burn_rate t ~windows:obj.Slo.slow_windows)
            (List.length (Slo.alerts t)))
        clients;
      List.iter
        (fun ((s : Placer.tenant), _) ->
          let t = Sched.slo sched ~tenant:s.Placer.name in
          List.iter
            (fun (a : Slo.alert) ->
              Printf.printf
                "alert: [%8d] %-6s %-6s burn fast %.1f / slow %.1f\n"
                a.Slo.a_cycle s.Placer.name
                (Slo.severity_to_string a.Slo.a_severity)
                a.Slo.a_burn_fast a.Slo.a_burn_slow)
            (Slo.alerts t))
        clients
    end;
    Sched.write_slo_report sched report_out;
    if not json then Printf.printf "slo report -> %s\n" report_out;
    0
  end

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic RNG seed.")

let run_term =
  let scenario =
    Arg.(value & opt scenario_conv Echo & info [ "scenario"; "s" ]
           ~doc:"Scenario: echo, kv or vpipe.")
  in
  let cycles =
    Arg.(value & opt int 200_000 & info [ "cycles" ] ~doc:"Cycles to simulate.")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Client hosts on the switch.")
  in
  let enforce =
    Arg.(value & opt bool true & info [ "enforce" ]
           ~doc:"Capability enforcement + rate limiting.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Arm the board's flight ring and print its last 30 monitor \
                 events (admit, deny, drop, fault, note); a fail-stop also \
                 writes apiary_postmortem.json.")
  in
  Term.(const run_cmd $ scenario $ cycles $ clients $ enforce $ trace $ seed_arg)

let run_cmd_info = Cmd.info "run" ~doc:"Run a board scenario with network clients"

let obs_term =
  let scenario =
    Arg.(value & opt scenario_conv Kv_scenario & info [ "scenario"; "s" ]
           ~doc:"Scenario: echo, kv or vpipe.")
  in
  let cycles =
    Arg.(value & opt int 200_000 & info [ "cycles" ] ~doc:"Cycles to simulate.")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Client hosts on the switch.")
  in
  let trace_out =
    Arg.(value & opt string "obs_trace.json" & info [ "trace-out" ]
           ~doc:"Chrome trace_event output path (open in Perfetto).")
  in
  let metrics_out =
    Arg.(value & opt string "obs_metrics.json" & info [ "metrics-out" ]
           ~doc:"Metrics registry snapshot output path.")
  in
  Term.(const obs_cmd $ scenario $ cycles $ clients $ seed_arg $ trace_out
        $ metrics_out)

let obs_cmd_info =
  Cmd.info "obs"
    ~doc:"Run a scenario with telemetry on: span trace + metrics snapshot"

let top_term =
  let scenario =
    Arg.(value & opt scenario_conv Kv_scenario & info [ "scenario"; "s" ]
           ~doc:"Scenario: echo, kv or vpipe.")
  in
  let cycles =
    Arg.(value & opt int 200_000 & info [ "cycles" ] ~doc:"Cycles to simulate.")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~doc:"Client hosts on the switch.")
  in
  let interval =
    Arg.(value & opt int 20_000 & info [ "interval" ]
           ~doc:"Cycles between counter refreshes.")
  in
  let once =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Render only the final frame (batch/CI mode).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the final frame as one byte-stable JSON object \
                 instead of the live view.")
  in
  let slo_cycles =
    Arg.(value & opt int 5_000 & info [ "slo-cycles" ]
           ~doc:"Latency bound the slo row judges requests against.")
  in
  Term.(const top_cmd $ scenario $ cycles $ clients $ interval $ once $ json
        $ seed_arg $ slo_cycles)

let top_cmd_info =
  Cmd.info "top"
    ~doc:"Live per-tile counter view, read in-band through the stat service"

let noc_term =
  let pattern =
    Arg.(value & opt pattern_conv `Uniform & info [ "pattern" ]
           ~doc:"uniform, hotspot, transpose or neighbor.")
  in
  let rate =
    Arg.(value & opt float 0.02 & info [ "rate" ] ~doc:"Packets/tile/cycle.")
  in
  let cols = Arg.(value & opt int 4 & info [ "cols" ] ~doc:"Mesh columns.") in
  let rows = Arg.(value & opt int 4 & info [ "rows" ] ~doc:"Mesh rows.") in
  let payload = Arg.(value & opt int 32 & info [ "payload" ] ~doc:"Payload bytes.") in
  let cycles = Arg.(value & opt int 50_000 & info [ "cycles" ] ~doc:"Cycles.") in
  let qos = Arg.(value & flag & info [ "qos" ] ~doc:"Class-priority arbitration.") in
  Term.(const noc_cmd $ pattern $ rate $ cols $ rows $ payload $ cycles $ qos $ seed_arg)

let noc_cmd_info = Cmd.info "noc" ~doc:"Characterize the NoC with synthetic traffic"

let area_term =
  let part =
    Arg.(value & opt string "VU9P" & info [ "part" ] ~doc:"FPGA part name.")
  in
  let tiles = Arg.(value & opt int 16 & info [ "tiles" ] ~doc:"Tile count.") in
  let caps =
    Arg.(value & opt int 256 & info [ "caps" ] ~doc:"Capability table entries.")
  in
  let flits =
    Arg.(value & opt int 128 & info [ "flit-bits" ] ~doc:"Flit width in bits.")
  in
  Term.(const area_cmd $ part $ tiles $ caps $ flits)

let area_cmd_info = Cmd.info "area" ~doc:"Resource model: OS footprint on a part"

let sched_term =
  let boards =
    Arg.(value & opt int 4 & info [ "boards" ] ~doc:"Boards in the rack.")
  in
  let cycles =
    Arg.(value & opt int 400_000 & info [ "cycles" ] ~doc:"Cycles to simulate.")
  in
  let kill =
    Arg.(value & flag & info [ "kill" ]
           ~doc:"Down a board serving the web tenant mid-run (failure drill).")
  in
  let decisions_out =
    Arg.(value & opt string "sched_decisions.json" & info [ "decisions-out" ]
           ~doc:"Decision log output path (JSON array).")
  in
  Term.(const sched_cmd $ boards $ cycles $ kill $ decisions_out)

let sched_cmd_info =
  Cmd.info "sched"
    ~doc:"Elastic multi-tenant scheduler: place, migrate, autoscale a rack"

let slo_term =
  let boards =
    Arg.(value & opt int 4 & info [ "boards" ] ~doc:"Boards in the rack.")
  in
  let cycles =
    Arg.(value & opt int 400_000 & info [ "cycles" ] ~doc:"Cycles to simulate.")
  in
  let kill =
    Arg.(value & flag & info [ "kill" ]
           ~doc:"Down a board serving the web tenant mid-run (failure drill).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one byte-stable JSON document on stdout instead of \
                 the tables.")
  in
  let report_out =
    Arg.(value & opt string "slo_report.json" & info [ "report-out" ]
           ~doc:"Per-tenant SLO report output path (JSON).")
  in
  Term.(const slo_cmd $ boards $ cycles $ kill $ json $ report_out)

let slo_cmd_info =
  Cmd.info "slo"
    ~doc:"Per-tenant error budgets and burn-rate alerts for the sched demo rack"

let () =
  let doc = "Apiary: a microkernel OS for direct-attached FPGAs (simulated)" in
  let info = Cmd.info "apiary" ~version:"0.1.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            Cmd.v run_cmd_info run_term;
            Cmd.v obs_cmd_info obs_term;
            Cmd.v top_cmd_info top_term;
            Cmd.v noc_cmd_info noc_term;
            Cmd.v area_cmd_info area_term;
            Cmd.v sched_cmd_info sched_term;
            Cmd.v slo_cmd_info slo_term;
          ]))
