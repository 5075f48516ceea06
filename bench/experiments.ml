(* The experiment harness: regenerates the paper's quantitative artifacts
   (Table 1, Figure 1) and runs the E1..E10 experiments defined in
   DESIGN.md §3 — the measurements the HotOS paper calls for but, as a
   position paper, does not contain. EXPERIMENTS.md records expectation
   vs measurement for each. *)

module Sim = Apiary_engine.Sim
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Mesh = Apiary_noc.Mesh
module Coord = Apiary_noc.Coord
module Routing = Apiary_noc.Routing
module Traffic = Apiary_noc.Traffic
module Rights = Apiary_cap.Rights
module Seg_alloc = Apiary_mem.Seg_alloc
module Page_alloc = Apiary_mem.Page_alloc
module Message = Apiary_core.Message
module Monitor = Apiary_core.Monitor
module Shell = Apiary_core.Shell
module Kernel = Apiary_core.Kernel
module Kv = Apiary_accel.Kv
module Accels = Apiary_accel.Accels
module Faulty = Apiary_accel.Faulty
module Multi_ctx = Apiary_accel.Multi_ctx
module Ctx_manager = Apiary_accel.Ctx_manager
module Client = Apiary_net.Client
module Netproto = Apiary_net.Netproto
module Mac = Apiary_net.Mac
module Link = Apiary_net.Link
module Switch = Apiary_net.Switch
module Board = Apiary_apps.Board
module Video_pipeline = Apiary_apps.Video_pipeline
module Hosted = Apiary_baseline.Hosted
module Remote_service = Apiary_baseline.Remote_service
module Netsvc = Apiary_net.Netsvc
module Energy = Apiary_baseline.Energy
module Direct_wired = Apiary_baseline.Direct_wired
module Parts = Apiary_resource.Parts
module Area = Apiary_resource.Area
module Floorplan = Apiary_resource.Floorplan
open Bench_util

let bytes_of n = Bytes.make n 'x'

let mk_kernel ?(cols = 4) ?(rows = 4) ?(monitor = Monitor.default_config)
    ?(overrides = []) ?(qos = false) () =
  let sim = Sim.create () in
  let mesh = { Mesh.default_config with Mesh.cols; rows; qos } in
  let cfg =
    {
      Kernel.mesh;
      monitor;
      monitor_overrides = overrides;
      mem_tile = (cols * rows) - 1;
      dram_bytes = 4 * 1024 * 1024;
    }
  in
  (sim, Kernel.create sim cfg)

let with_tile k ~tile ~delay f =
  Kernel.install k ~tile
    (Shell.behavior "driver" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) delay (fun () -> f sh)))

(* ------------------------------------------------------------------ *)
(* T1 — the paper's Table 1 *)

let t1 () =
  header "T1" "Table 1 — logic cells across Virtex generations";
  table
    [ "family"; "year"; "part"; "logic cells" ]
    (List.map
       (fun p ->
         [ p.Parts.family; i p.Parts.year; p.Parts.name; commas p.Parts.logic_cells ])
       Parts.table1);
  let small, large = Parts.generation_scaling () in
  Printf.printf
    "\nsmallest-part scaling V7 -> VU+: %.2fx (paper: \"about 50%%\")\n" small;
  Printf.printf "largest-part scaling  V7 -> VU+: %.2fx (paper: \"3x\")\n" large;
  subhead "extension: Apiary capacity of each part (64 kc slots)";
  let noc = { Area.vcs = 2; depth = 4; flit_bits = 128 } in
  table
    [ "part"; "max tiles"; "OS overhead" ]
    (List.map
       (fun p ->
         let tiles =
           Floorplan.max_tiles ~part:p ~noc ~cap_entries:256 ~min_slot_cells:64_000
         in
         let oh =
           match Floorplan.plan ~part:p ~tiles:(max 1 tiles) ~noc ~cap_entries:256 with
           | Some pl -> pct pl.Floorplan.overhead_frac
           | None -> "n/a"
         in
         [ p.Parts.name; i tiles; oh ])
       Parts.all)

(* ------------------------------------------------------------------ *)
(* F1 — the paper's Figure 1 configuration, with its isolation matrix *)

let fig1 () =
  header "F1" "Figure 1 — two applications sharing one board";
  (* App 1 (video): encoder tile + compressor tile. App 2: KV store.
     OS: name, memory (kernel) + the tiles' monitors. Policies encode app
     membership: each tile accepts connections only from its own app. *)
  let sim, k = mk_kernel () in
  let enc, comp, kv = (1, 2, 5) in
  let policy allowed sh =
    Shell.set_connect_policy sh (fun src -> List.mem src.Message.tile allowed)
  in
  Kernel.install k ~tile:comp
    (let b = Accels.compressor ~algo:`Lz () in
     { b with Shell.on_boot = (fun sh -> policy [ enc ] sh; b.Shell.on_boot sh) });
  Kernel.install k ~tile:enc
    (let b =
       Accels.transform_stage ~service:"vpipe" ~next:"compress"
         ~f:(Apiary_accel.Codec.video_encode ~q:2 ~width:64)
         ()
     in
     { b with Shell.on_boot = (fun sh -> policy [ 3 ] sh; b.Shell.on_boot sh) });
  let kv_b, _ = Kv.behavior () in
  Kernel.install k ~tile:kv
    { kv_b with Shell.on_boot = (fun sh -> policy [ 6 ] sh; kv_b.Shell.on_boot sh) };
  (* Tiles 3 and 6 play the apps' own clients (e.g. their network-facing
     members); tile 7 is an outsider. *)
  let results : (int * string, string) Hashtbl.t = Hashtbl.create 16 in
  let attempt src service =
    with_tile k ~tile:src ~delay:600 (fun sh ->
        Shell.connect sh ~service (fun r ->
            Hashtbl.replace results (src, service)
              (match r with
              | Ok _ -> "CONNECT"
              | Error (Shell.Denied reason) ->
                if reason = "refused by policy" then "refused" else "denied"
              | Error e -> Shell.rpc_error_to_string e)))
  in
  attempt 3 "vpipe";
  attempt 6 "kv";
  with_tile k ~tile:7 ~delay:600 (fun sh ->
      Shell.connect sh ~service:"kv" (fun r ->
          Hashtbl.replace results (7, "kv")
            (match r with Ok _ -> "CONNECT" | Error _ -> "refused"));
      Shell.connect sh ~service:"vpipe" (fun r ->
          Hashtbl.replace results (7, "vpipe")
            (match r with Ok _ -> "CONNECT" | Error _ -> "refused"));
      (* And a lawless send straight into the KV tile. *)
      Shell.send_raw sh ~dst:{ Message.tile = kv; ep = 1 } ~opcode:1 (bytes_of 32));
  Sim.run_for sim 20_000;
  let get who svc =
    Option.value ~default:"-" (Hashtbl.find_opt results (who, svc))
  in
  table
    [ "requester"; "vpipe (app1)"; "kv (app2)" ]
    [
      [ "tile 3 (app1 member)"; get 3 "vpipe"; "-" ];
      [ "tile 6 (app2 member)"; "-"; get 6 "kv" ];
      [ "tile 7 (outsider)"; get 7 "vpipe"; get 7 "kv" ];
    ];
  Printf.printf
    "\nwild sends from outsider into app2's tile: %d denied at source monitor\n"
    (Monitor.denied (Kernel.monitor k 7));
  Printf.printf
    "encoder -> compressor composition (intra-app1): %s\n"
    (match Monitor.state (Kernel.monitor k enc) with
    | Monitor.Running -> "established (pipeline live)"
    | s -> Monitor.state_to_string s)

(* ------------------------------------------------------------------ *)
(* E1 — monitor overhead: area, latency, policing throughput *)

let e1_area () =
  subhead "E1a: per-tile OS hardware (128-bit flits, 256 caps)";
  let noc = { Area.vcs = 2; depth = 4; flit_bits = 128 } in
  let r = Area.router noc in
  let m = Area.monitor ~cap_entries:256 ~service_entries:8 ~egress_depth:64 ~flit_bits:128 in
  let s = Area.shell ~rpc_entries:32 ~flit_bits:128 in
  table
    [ "component"; "LUTs"; "FFs"; "BRAM Kb" ]
    [
      [ "NoC router"; commas r.Area.luts; commas r.Area.ffs; i r.Area.bram_kb ];
      [ "Apiary monitor"; commas m.Area.luts; commas m.Area.ffs; i m.Area.bram_kb ];
      [ "shell"; commas s.Area.luts; commas s.Area.ffs; i s.Area.bram_kb ];
    ];
  subhead "E1a: OS overhead fraction vs tile count (VU9P)";
  let rows =
    List.filter_map
      (fun tiles ->
        match Floorplan.plan ~part:Parts.vu9p ~tiles ~noc ~cap_entries:256 with
        | Some p ->
          Some
            [ i tiles;
              commas p.Floorplan.os_logic_cells;
              commas p.Floorplan.slot_logic_cells;
              pct p.Floorplan.overhead_frac ]
        | None -> Some [ i tiles; "-"; "-"; "does not fit" ])
      [ 4; 8; 16; 32; 64 ]
  in
  table [ "tiles"; "OS logic cells"; "slot budget"; "overhead" ] rows

let e1_latency () =
  subhead "E1b: message latency through the monitor (adjacent tiles, 64 B)";
  let run ~enforce ~check =
    let monitor =
      { Monitor.default_config with Monitor.enforce; check_latency = check }
    in
    let sim, k = mk_kernel ~monitor () in
    Kernel.install k ~tile:2 (Accels.echo ());
    let rtts = Stats.Histogram.create "rtt" in
    with_tile k ~tile:1 ~delay:500 (fun sh ->
        Shell.connect sh ~service:"echo" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              let rec go () =
                let t0 = Shell.now sh in
                Shell.request sh conn ~opcode:1 (bytes_of 64) (fun _ ->
                    Stats.Histogram.record rtts (Shell.now sh - t0);
                    go ())
              in
              go ()));
    Sim.run_for sim 60_000;
    let added = Monitor.added_latency (Kernel.monitor k 1) in
    (p50 rtts, Stats.Histogram.mean added)
  in
  let checks = [ 1; 2; 4; 8 ] in
  let results =
    parallel_map
      (fun f -> f ())
      ((fun () -> run ~enforce:false ~check:0)
      :: List.map (fun check () -> run ~enforce:true ~check) checks)
  in
  let raw_rtt, raw_add = List.hd results in
  let rows =
    List.map2
      (fun check (rtt, add) ->
        [ Printf.sprintf "enforce, %d-cycle check" check;
          i rtt; f1 add; Printf.sprintf "+%d cyc (%.0f%%)" (rtt - raw_rtt)
            (100.0 *. float_of_int (rtt - raw_rtt) /. float_of_int raw_rtt) ])
      checks (List.tl results)
  in
  table
    [ "configuration"; "RTT p50 (cyc)"; "monitor latency (cyc)"; "vs raw NoC" ]
    ([ [ "raw NoC (no monitor)"; i raw_rtt; f1 raw_add; "-" ] ] @ rows)

let e1_throughput () =
  subhead "E1c: egress throughput under policing (64 B messages, 6 flits)";
  let run ~enforce ~rate =
    let monitor =
      { Monitor.default_config with Monitor.enforce; rate; burst = 64 }
    in
    let sim, k = mk_kernel ~monitor () in
    Kernel.install k ~tile:2 (Accels.echo ());
    with_tile k ~tile:1 ~delay:500 (fun sh ->
        Shell.connect sh ~service:"echo" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              (* A flood sender is never quiescent: its drops count. *)
              Sim.add_clocked (Shell.sim sh) (fun () ->
                  Shell.send_data sh conn ~opcode:1 (bytes_of 64);
                  Sim.Busy)));
    Sim.run_for sim 20_000;
    float_of_int (Monitor.msgs_out (Kernel.monitor k 1)) /. 20_000.0
  in
  let tputs =
    parallel_map
      (fun f -> f ())
      [
        (fun () -> run ~enforce:false ~rate:1.0);
        (fun () -> run ~enforce:true ~rate:12.0);
        (fun () -> run ~enforce:true ~rate:3.0);
        (fun () -> run ~enforce:true ~rate:0.6);
      ]
  in
  table
    [ "configuration"; "sustained msgs/cycle" ]
    (List.map2
       (fun name v -> [ name; f2 v ])
       [ "no policing (raw)"; "bucket 12 flits/cyc (headroom)";
         "bucket 3 flits/cyc"; "bucket 0.6 flits/cyc (tight)" ]
       tputs)

let e1 () =
  header "E1" "per-tile monitor overhead (paper open question Q1)";
  e1_area ();
  e1_latency ();
  e1_throughput ()

(* ------------------------------------------------------------------ *)
(* E2 — direct-attached vs host-mediated *)

let kv_cost_model len = 16 + (len / 16) + 60 (* compute + DRAM service *)

let e2_direct ~value_bytes ~concurrency ~duration =
  let sim = Sim.create () in
  let board = Board.create sim in
  let kv_b, _ = Kv.behavior () in
  (match Board.user_tiles board with
  | t :: _ -> Kernel.install board.Board.kernel ~tile:t kv_b
  | [] -> ());
  let client = Board.client board ~port:1 ~gbps:10.0 () in
  let value = bytes_of value_bytes in
  let gen n =
    if n = 1 then Kv.Proto.encode_req (Kv.Proto.Put ("hot", value))
    else Kv.Proto.encode_req (Kv.Proto.Get "hot")
  in
  Sim.after sim 2_000 (fun () ->
      Client.start_closed client
        { Client.service = "kv"; op = Kv.Proto.opcode; gen }
        ~concurrency);
  Sim.run_for sim duration;
  Client.stop client;
  let lat = Client.latency client in
  let served = Client.completed client in
  (* Energy: accelerator cost model + ~100 cycles of OS/NoC activity per
     request; all on the FPGA. *)
  let fpga_cycles = served * (kv_cost_model value_bytes + 100) in
  let net_bytes = served * 2 * (value_bytes + 80) in
  let uj =
    Energy.direct_uj ~fpga_cycles ~net_bytes ()
    /. float_of_int (max 1 served)
  in
  (p50 lat, p99 lat, served, uj)

let e2_hosted ~value_bytes ~concurrency ~duration =
  let sim = Sim.create () in
  let sw = Switch.create sim ~nports:4 ~latency:250 in
  let attach port =
    let link = Link.create sim ~bytes_per_cycle:5.0 ~prop_cycles:125 in
    Switch.attach sw ~port link Link.B;
    Mac.create sim Mac.Gen_10g link Link.A
  in
  let server_mac = attach 0 and client_mac = attach 1 in
  let store : (string, bytes) Hashtbl.t = Hashtbl.create 64 in
  let handler _op body =
    match Kv.Proto.decode_req body with
    | Ok (Kv.Proto.Put (k, v)) ->
      Hashtbl.replace store k v;
      Kv.Proto.encode_resp Kv.Proto.Stored
    | Ok (Kv.Proto.Get k) ->
      (match Hashtbl.find_opt store k with
      | Some v -> Kv.Proto.encode_resp (Kv.Proto.Found v)
      | None -> Kv.Proto.encode_resp Kv.Proto.Not_found)
    | Ok (Kv.Proto.Del k) ->
      Hashtbl.remove store k;
      Kv.Proto.encode_resp Kv.Proto.Deleted
    | Error e -> Kv.Proto.encode_resp (Kv.Proto.Failed e)
  in
  let server =
    Hosted.create sim Hosted.default_config ~mac:server_mac ~my_mac:0xAA
      ~accel_cycles:(fun len -> kv_cost_model len)
      ~handler
  in
  let client = Client.create sim ~mac:client_mac ~my_mac:0xBB ~server_mac:0xAA in
  let value = bytes_of value_bytes in
  let gen n =
    if n = 1 then Kv.Proto.encode_req (Kv.Proto.Put ("hot", value))
    else Kv.Proto.encode_req (Kv.Proto.Get "hot")
  in
  Sim.after sim 2_000 (fun () ->
      Client.start_closed client
        { Client.service = "kv"; op = Kv.Proto.opcode; gen }
        ~concurrency);
  Sim.run_for sim duration;
  Client.stop client;
  let served = max 1 (Hosted.served server) in
  let uj =
    Energy.hosted_uj
      ~cpu_cycles:(Hosted.host_busy_cycles server + (served * 2 * Hosted.default_config.Hosted.nic_cycles))
      ~accel_cycles:(Hosted.accel_busy_cycles server)
      ~pcie_bytes:(served * 2 * value_bytes)
      ~net_bytes:(served * 2 * (value_bytes + 80))
      ()
    /. float_of_int served
  in
  let lat = Client.latency client in
  (p50 lat, p99 lat, Client.completed client, uj)

let e2 () =
  header "E2" "direct-attached Apiary vs host-mediated (Coyote-style) KV";
  let duration = 400_000 in
  let combos =
    List.concat_map
      (fun value_bytes ->
        List.map (fun concurrency -> (value_bytes, concurrency)) [ 1; 4; 16 ])
      [ 64; 1024 ]
  in
  (* Each direct and hosted run is an independent sim: 12 parallel tasks. *)
  let results =
    parallel_map
      (fun f -> f ())
      (List.concat_map
         (fun (value_bytes, concurrency) ->
           [ (fun () -> e2_direct ~value_bytes ~concurrency ~duration);
             (fun () -> e2_hosted ~value_bytes ~concurrency ~duration) ])
         combos)
  in
  let rec pair = function
    | d :: h :: rest -> (d, h) :: pair rest
    | _ -> []
  in
  let rows =
    List.map2
      (fun (value_bytes, concurrency) ((dp50, dp99, dn, duj), (hp50, hp99, hn, huj)) ->
        [
          i value_bytes;
          i concurrency;
          f1 (us_of_cycles dp50);
          f1 (us_of_cycles dp99);
          f1 (us_of_cycles hp50);
          f1 (us_of_cycles hp99);
          f2 (float_of_int hp50 /. float_of_int (max 1 dp50));
          f1 (throughput_per_sec ~count:dn ~cycles:duration /. 1000.0);
          f1 (throughput_per_sec ~count:hn ~cycles:duration /. 1000.0);
          f2 duj;
          f2 huj;
        ])
      combos (pair results)
  in
  table
    [ "val B"; "conc"; "direct p50us"; "p99us"; "hosted p50us"; "p99us";
      "lat ratio"; "direct kops"; "hosted kops"; "direct uJ"; "hosted uJ" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 — NoC scalability with tile count *)

let e3 () =
  header "E3" "NoC scalability: latency and saturation vs mesh size";
  let mk_mesh n ~seed ~rate ~pattern =
    let sim = Sim.create () in
    let mesh : int Mesh.t =
      Mesh.create sim { Mesh.default_config with Mesh.cols = n; rows = n }
    in
    let gen =
      Traffic.start mesh ~rng:(Rng.create ~seed) ~pattern ~rate
        ~payload_bytes:32 ~payload:0 ()
    in
    (sim, mesh, gen)
  in
  let low_load_latency n pattern =
    let sim, mesh, gen = mk_mesh n ~seed:3 ~rate:0.002 ~pattern in
    Sim.run_for sim 30_000;
    Traffic.stop_gen gen;
    Sim.run_for sim 5_000;
    p50 (Mesh.latency mesh)
  in
  let saturation n pattern =
    let sim, mesh, gen = mk_mesh n ~seed:4 ~rate:0.5 ~pattern in
    Sim.run_for sim 30_000;
    Traffic.stop_gen gen;
    (* Delivered flits per cycle per tile in the measured window. *)
    float_of_int (Mesh.packets_delivered mesh) *. 3.0 /. 30_000.0 /. float_of_int (n * n)
  in
  let sizes = [ 2; 4; 6; 8 ] in
  (* 12 independent sims (3 measurements x 4 mesh sizes); each task
     returns its formatted cell, rows are assembled in order afterwards. *)
  let cells =
    parallel_map
      (fun f -> f ())
      (List.concat_map
         (fun n ->
           [ (fun () -> i (low_load_latency n Traffic.Uniform));
             (fun () -> f2 (saturation n Traffic.Uniform));
             (fun () ->
               f2 (saturation n (Traffic.Hotspot (Coord.make (n / 2) (n / 2), 0.5))));
           ])
         sizes)
  in
  let rows =
    List.mapi
      (fun idx n ->
        [
          Printf.sprintf "%dx%d" n n;
          i (n * n);
          List.nth cells (3 * idx);
          List.nth cells ((3 * idx) + 1);
          List.nth cells ((3 * idx) + 2);
        ])
      sizes
  in
  table
    [ "mesh"; "tiles"; "p50 latency @ low load (cyc)";
      "uniform sat. (flits/cyc/tile)"; "hotspot sat." ]
    rows;
  subhead "physical interfaces per tile: direct-wired vs NoC (128-bit data)";
  let rows =
    List.map
      (fun services ->
        let d = Direct_wired.direct ~tiles:16 ~services ~bus_bits:128 in
        let nc = Direct_wired.noc ~tiles:16 ~services ~flit_bits:128 in
        [
          i services;
          i d.Direct_wired.ports_per_tile;
          commas d.Direct_wired.total_wires;
          i d.Direct_wired.rewire_on_add_service;
          i nc.Direct_wired.ports_per_tile;
          commas nc.Direct_wired.total_wires;
          i nc.Direct_wired.rewire_on_add_service;
        ])
      [ 2; 4; 8; 16 ]
  in
  table
    [ "services"; "direct ports/tile"; "direct wires"; "rewire-on-add";
      "NoC ports/tile"; "NoC wires"; "rewire-on-add" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4 — isolation under attack *)

let e4_flood ~attack ~enforce ~tight =
  (* Victim echo service at tile 5; a well-behaved customer at tile 2
     sends a request every 400 cycles; the attacker at tile 6 floods the
     victim with 1 KiB messages through a legitimate connection. *)
  let overrides =
    if tight then
      [ (6, { Monitor.default_config with Monitor.enforce; rate = 0.2; burst = 64 }) ]
    else []
  in
  let monitor = { Monitor.default_config with Monitor.enforce } in
  let sim, k = mk_kernel ~monitor ~overrides () in
  Kernel.install k ~tile:5 (Accels.echo ~cost:20 ());
  if attack then
    Kernel.install k ~tile:6
      (Faulty.wrap
         [ Faulty.Flood_via_conn_at { at = 4_000; service = "echo"; payload_bytes = 1024 } ]
         (Shell.behavior "attacker"));
  let lat = Stats.Histogram.create "victim" in
  with_tile k ~tile:2 ~delay:500 (fun sh ->
      Shell.connect sh ~service:"echo" (fun r ->
          match r with
          | Error _ -> ()
          | Ok conn ->
            Sim.every (Shell.sim sh) 400 (fun () ->
                let t0 = Shell.now sh in
                Shell.request sh conn ~opcode:1 (bytes_of 64) (fun r ->
                    if Result.is_ok r then
                      Stats.Histogram.record lat (Shell.now sh - t0)))));
  Sim.run_for sim 100_000;
  (p50 lat, p99 lat, Stats.Histogram.count lat)

let e4 () =
  header "E4" "isolation: attacks from a co-tenant tile";
  subhead "E4a: wild (capability-less) sends into a victim tile";
  let wild ~enforce =
    let monitor = { Monitor.default_config with Monitor.enforce } in
    let sim, k = mk_kernel ~monitor () in
    let got = ref 0 in
    Kernel.install k ~tile:5
      (Shell.behavior "victim" ~on_message:(fun _ m ->
           match m.Message.kind with Message.Data _ -> incr got | _ -> ()));
    with_tile k ~tile:6 ~delay:500 (fun sh ->
        for _ = 1 to 50 do
          Shell.send_raw sh ~dst:{ Message.tile = 5; ep = 1 } ~opcode:0xBAD (bytes_of 64)
        done);
    Sim.run_for sim 20_000;
    (!got, Monitor.denied (Kernel.monitor k 6))
  in
  let d_on, den_on = wild ~enforce:true in
  let d_off, den_off = wild ~enforce:false in
  table
    [ "config"; "delivered to victim"; "denied at source" ]
    [
      [ "enforcement on"; i d_on; i den_on ];
      [ "enforcement off"; i d_off; i den_off ];
    ];
  subhead "E4b: message flood through a legitimate connection (victim RPC latency)";
  let base50, base99, basen = e4_flood ~attack:false ~enforce:true ~tight:false in
  let off50, off99, offn = e4_flood ~attack:true ~enforce:false ~tight:false in
  let gen50, gen99, genn = e4_flood ~attack:true ~enforce:true ~tight:false in
  let tgt50, tgt99, tgtn = e4_flood ~attack:true ~enforce:true ~tight:true in
  table
    [ "config"; "victim p50 (cyc)"; "p99 (cyc)"; "completed" ]
    [
      [ "no attack"; i base50; i base99; i basen ];
      [ "flood, no enforcement"; i off50; i off99; i offn ];
      [ "flood, default bucket (4 fl/cyc)"; i gen50; i gen99; i genn ];
      [ "flood, tight bucket (0.2 fl/cyc)"; i tgt50; i tgt99; i tgtn ];
    ];
  subhead "E4c: forged-capability DRAM write over a co-tenant KV store";
  let stomp ~enforce =
    let monitor = { Monitor.default_config with Monitor.enforce } in
    let sim, k = mk_kernel ~monitor () in
    let kv_b, kv_stats = Kv.behavior () in
    Kernel.install k ~tile:1 kv_b;
    Kernel.install k ~tile:6
      (Faulty.wrap
         [ Faulty.Mem_stomp_at { at = 20_000; addr = 0; len = 8192 } ]
         (Shell.behavior "tenant"));
    let corrupted_reads = ref 0 and clean_reads = ref 0 in
    with_tile k ~tile:2 ~delay:500 (fun sh ->
        Shell.connect sh ~service:"kv" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              let req r cb =
                Shell.request sh conn ~opcode:Kv.Proto.opcode (Kv.Proto.encode_req r)
                  (fun x ->
                    match x with
                    | Ok m -> cb (Kv.Proto.decode_resp m.Message.payload)
                    | Error _ -> ())
              in
              req (Kv.Proto.Put ("data", bytes_of 64)) (fun _ ->
                  Sim.every (Shell.sim sh) 1000 (fun () ->
                      req (Kv.Proto.Get "data") (fun r ->
                          match r with
                          | Ok (Kv.Proto.Found _) -> incr clean_reads
                          | Ok (Kv.Proto.Failed _) -> incr corrupted_reads
                          | _ -> ())))));
    Sim.run_for sim 60_000;
    (!clean_reads, !corrupted_reads, kv_stats.Kv.corruptions,
     Monitor.denied (Kernel.monitor k 6))
  in
  let c_on = stomp ~enforce:true and c_off = stomp ~enforce:false in
  let row name (clean, corrupt, detected, denied) =
    [ name; i clean; i corrupt; i detected; i denied ]
  in
  table
    [ "config"; "clean reads"; "failed reads"; "corruptions detected"; "stomps denied" ]
    [ row "enforcement on" c_on; row "enforcement off" c_off ];
  subhead "E4d: per-connection rate limits (receiver-set, sender-enforced)";
  (* The victim grants untrusted peers only 0.3 flits/cycle. The attacker
     floods through that connection while also running legitimate traffic
     to another service from the same tile: only the flood is squeezed. *)
  let per_conn ~limited =
    let monitor =
      { Monitor.default_config with Monitor.rate = 1000.0; burst = 100_000;
        egress_classes = 2 }
    in
    let sim, k = mk_kernel ~monitor () in
    Kernel.install k ~tile:5
      (Shell.behavior "victim"
         ~on_boot:(fun sh ->
           if limited then
             Shell.set_grant_policy sh (fun src ->
                 (* Tile 2 is the victim's trusted frontend; others are
                    rate-limited at grant time. *)
                 if src.Message.tile = 2 then Shell.Accept
                 else Shell.Accept_limited { rate = 0.3; burst = 32 });
           Shell.register_service sh "victim")
         ~on_message:(fun sh msg ->
           match msg.Message.kind with
           | Message.Data { opcode } when msg.Message.corr > 0 ->
             Shell.busy sh 20;
             Shell.respond sh msg ~opcode Bytes.empty
           | _ -> ()));
    let sidecount = ref 0 in
    Kernel.install k ~tile:9
      (Shell.behavior "side"
         ~on_boot:(fun sh -> Shell.register_service sh "side")
         ~on_message:(fun _ m ->
           match m.Message.kind with Message.Data _ -> incr sidecount | _ -> ()));
    (* Attacker: flood victim on class 0, legitimate side traffic class 1. *)
    Kernel.install k ~tile:6
      (Shell.behavior "attacker" ~on_boot:(fun sh ->
           Sim.after (Shell.sim sh) 500 (fun () ->
               Shell.connect sh ~service:"victim" (fun r ->
                   match r with
                   | Error _ -> ()
                   | Ok vconn ->
                     Shell.connect sh ~service:"side" (fun r ->
                         match r with
                         | Error _ -> ()
                         | Ok sconn ->
                           (* Flood + periodic side traffic: never
                              quiescent, its drop counts are measured. *)
                           Sim.add_clocked (Shell.sim sh) (fun () ->
                               Shell.send_data sh vconn ~opcode:1 ~cls:0
                                 (bytes_of 1024);
                               if Shell.now sh mod 100 = 0 then
                                 Shell.send_data sh sconn ~opcode:2 ~cls:1
                                   (bytes_of 32);
                               Sim.Busy))))));
    (* Victim's real customer. *)
    let lat = Stats.Histogram.create "cust" in
    with_tile k ~tile:2 ~delay:500 (fun sh ->
        Shell.connect sh ~service:"victim" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              Sim.every (Shell.sim sh) 400 (fun () ->
                  let t0 = Shell.now sh in
                  Shell.request sh conn ~opcode:1 (bytes_of 64) (fun r ->
                      if Result.is_ok r then
                        Stats.Histogram.record lat (Shell.now sh - t0)))));
    Sim.run_for sim 100_000;
    (p50 lat, p99 lat, Monitor.msgs_out (Kernel.monitor k 6), !sidecount)
  in
  let u50, u99, uout, uside = per_conn ~limited:false in
  let l50, l99, lout, lside = per_conn ~limited:true in
  table
    [ "victim policy"; "customer p50"; "p99"; "attacker msgs out"; "attacker legit msgs" ]
    [
      [ "unlimited grants"; i u50; i u99; i uout; i uside ];
      [ "0.3 fl/cyc per untrusted conn"; i l50; i l99; i lout; i lside ];
    ]

(* ------------------------------------------------------------------ *)
(* E5 — segments+capabilities vs paged translation *)

let e5 () =
  header "E5" "memory isolation: segments+capabilities vs paging";
  subhead "E5a: allocation on a 4 MiB region (accelerator-sized objects, 30% churn)";
  let region = 4 * 1024 * 1024 in
  (* Accelerator allocations skew small (descriptors, line buffers) with
     occasional large frame/model buffers — the "flexibility in
     allocation sizes" point of §4.6. *)
  let mk_sizes () =
    let rng = Rng.create ~seed:5 in
    fun () ->
      let r = Rng.float rng in
      if r < 0.80 then Rng.int_in rng 16 1536
      else if r < 0.95 then Rng.int_in rng 4096 65536
      else Rng.int_in rng 131072 524288
  in
  (* Returns (allocs before OOM, live requested fraction, consumed
     fraction of the region, waste = consumed-but-not-requested,
     largest single request still satisfiable at OOM). *)
  let drive alloc free consumed_bytes max_alloc =
    let rng = Rng.create ~seed:6 in
    let next_size = mk_sizes () in
    let live = ref [] in
    let requested = ref 0 in
    let n = ref 0 in
    let stop = ref false in
    while not !stop do
      let size = next_size () in
      match alloc size with
      | Some handle ->
        incr n;
        requested := !requested + size;
        live := (handle, size) :: !live;
        if Rng.chance rng 0.3 then begin
          match !live with
          | [] -> ()
          | l ->
            let idx = Rng.int rng (List.length l) in
            let (h, sz) = List.nth l idx in
            live := List.filteri (fun j _ -> j <> idx) l;
            requested := !requested - sz;
            free h sz
        end
      | None -> stop := true
    done;
    let consumed = consumed_bytes () in
    let frac x = float_of_int x /. float_of_int region in
    (!n, frac !requested, frac consumed,
     float_of_int (consumed - !requested) /. float_of_int (max 1 consumed),
     max_alloc ())
  in
  let seg policy =
    let a = Seg_alloc.create ~base:0 ~size:region policy in
    drive
      (fun sz -> match Seg_alloc.alloc a ~align:16 sz with Ok b -> Some b | Error _ -> None)
      (fun b _ -> Seg_alloc.free a b)
      (fun () -> region - Seg_alloc.largest_free a)
      (fun () -> Seg_alloc.largest_free a)
  in
  let paged () =
    let pa = Page_alloc.create ~base:0 ~size:region ~page_bytes:4096 in
    let sp = Page_alloc.Space.create pa ~tlb_entries:64 ~walk_cycles:20 in
    drive
      (fun sz -> match Page_alloc.Space.map sp sz with Ok v -> Some v | Error _ -> None)
      (fun v sz -> Page_alloc.Space.unmap sp ~vbase:v ~len:sz)
      (fun () -> Page_alloc.Space.mapped_bytes sp)
      (fun () -> Page_alloc.free_frames pa * Page_alloc.page_bytes pa)
  in
  let row name (n, req, cons, waste, biggest) =
    [ name; i n; pct req; pct cons; pct waste; commas biggest ]
  in
  table
    [ "allocator"; "allocs before OOM"; "live requested"; "consumed"; "waste";
      "max request at OOM (B)" ]
    [
      row "segments, first-fit" (seg Seg_alloc.First_fit);
      row "segments, best-fit" (seg Seg_alloc.Best_fit);
      row "4 KiB pages" (paged ());
    ];
  Printf.printf
    "\n(pages satisfy a larger worst-case request by scattering frames, at the\n cost of page-rounding waste and the translation machinery below — the\n trade §4.6 weighs before choosing segments)\n";
  subhead "E5b: per-access translation cost (100k accesses)";
  let page_cost ~spread =
    let pa = Page_alloc.create ~base:0 ~size:region ~page_bytes:4096 in
    let sp = Page_alloc.Space.create pa ~tlb_entries:64 ~walk_cycles:20 in
    let v = Result.get_ok (Page_alloc.Space.map sp (spread * 4096)) in
    let rng = Rng.create ~seed:7 in
    let total = ref 0 in
    for _ = 1 to 100_000 do
      let addr = v + (Rng.int rng spread * 4096) in
      match Page_alloc.Space.translate sp addr with
      | Ok (_, c) -> total := !total + c
      | Error `Fault -> ()
    done;
    float_of_int !total /. 100_000.0
  in
  table
    [ "mechanism"; "working set"; "avg cycles/access" ]
    [
      [ "segment bounds check"; "any"; "1.00" ];
      [ "pages, 64-entry TLB"; "32 pages (fits)"; f2 (page_cost ~spread:32) ];
      [ "pages, 64-entry TLB"; "256 pages"; f2 (page_cost ~spread:256) ];
      [ "pages, 64-entry TLB"; "1024 pages"; f2 (page_cost ~spread:1024) ];
    ];
  subhead "E5c: translation hardware area (per tile)";
  table
    [ "mechanism"; "LUTs (est.)" ]
    [
      [ "segment capability check (base+bounds)"; "180" ];
      [ "64-entry TLB + page walker"; i ((64 * 8) + 300) ];
    ]

(* ------------------------------------------------------------------ *)
(* E6 — fail-stop vs preemptible contexts *)

let e6_run ~preemptible =
  let sim, k = mk_kernel () in
  let behavior, _api = Multi_ctx.behavior ~nctx:4 ~preemptible () in
  Kernel.install k ~tile:5 behavior;
  (* Restart policy: the management plane replaces a fail-stopped tile
     after a detection+rebuild delay. *)
  Kernel.on_fault k (fun tile _reason ->
      if tile = 5 then
        Sim.after sim 10_000 (fun () ->
            let b, _ = Multi_ctx.behavior ~nctx:4 ~preemptible () in
            Kernel.restart_tile k ~tile:5 b));
  let ok = Array.make 4 0 in
  let err = Array.make 4 0 in
  let poison_at = 40_000 in
  let window = 40_000 in
  let after_ok = Array.make 4 0 in
  (* One client tile per context, each sending every 200 cycles, with
     reconnect-on-failure. *)
  let client ctx tile =
    let reconnecting = ref false in
    let poisoned = ref false in
    let conn_ref = ref None in
    let rec reconnect sh =
      if not !reconnecting then begin
        reconnecting := true;
        Sim.after (Shell.sim sh) 1_000 (fun () ->
            Shell.connect sh ~service:"mctx" (fun r ->
                reconnecting := false;
                match r with
                | Ok c -> conn_ref := Some c
                | Error _ -> reconnect sh))
      end
    in
    with_tile k ~tile ~delay:500 (fun sh ->
        reconnect sh;
        Sim.every (Shell.sim sh) 200 (fun () ->
            match !conn_ref with
            | None -> ()
            | Some conn ->
              let poison = Shell.now sh >= poison_at && ctx = 0 && not !poisoned in
              if poison then poisoned := true;
              Shell.request sh conn ~opcode:Multi_ctx.Proto.opcode
                (Multi_ctx.Proto.encode_req
                   { Multi_ctx.Proto.ctx; poison; data = bytes_of 32 })
                (fun r ->
                  match r with
                  | Ok m ->
                    (match Multi_ctx.Proto.decode_resp m.Message.payload with
                    | Ok (Multi_ctx.Proto.Accum _) ->
                      ok.(ctx) <- ok.(ctx) + 1;
                      if Shell.now sh > poison_at then
                        after_ok.(ctx) <- after_ok.(ctx) + 1
                    | _ -> err.(ctx) <- err.(ctx) + 1)
                  | Error _ ->
                    err.(ctx) <- err.(ctx) + 1;
                    conn_ref := None;
                    reconnect sh)))
  in
  client 0 1;
  client 1 2;
  client 2 6;
  client 3 9;
  Sim.run_for sim (poison_at + window);
  let survivors = after_ok.(1) + after_ok.(2) + after_ok.(3) in
  let ideal = 3 * window / 200 in
  (survivors, ideal, err.(0) + err.(1) + err.(2) + err.(3), List.length (Kernel.faults k))

let e6 () =
  header "E6" "fault handling: fail-stop tile vs preemptible contexts";
  let s_p, ideal, err_p, faults_p = e6_run ~preemptible:true in
  let s_f, _, err_f, faults_f = e6_run ~preemptible:false in
  table
    [ "model"; "survivor ops after poison"; "of ideal"; "errors"; "tile fail-stops" ]
    [
      [ "preemptible contexts"; i s_p; pct (float_of_int s_p /. float_of_int ideal);
        i err_p; i faults_p ];
      [ "concurrent-only (fail-stop)"; i s_f; pct (float_of_int s_f /. float_of_int ideal);
        i err_f; i faults_f ];
    ];
  Printf.printf
    "\n(poison at cycle 40k; fail-stopped tile is rebuilt by the management plane\n after 10k cycles, but its session state is lost and clients must reconnect)\n";
  subhead "E6b: context swapping — 16 sessions on fewer resident slots";
  (* Once state is externalizable, the OS can oversubscribe the
     accelerator: victims spill to DRAM through capability-checked writes.
     Zipf-popular sessions mean a small resident set covers most traffic. *)
  let swap_run ~resident =
    let sim, k = mk_kernel () in
    let behavior, st = Ctx_manager.behavior ~logical:16 ~resident () in
    Kernel.install k ~tile:5 behavior;
    let rng = Rng.create ~seed:13 in
    let completed = ref 0 in
    with_tile k ~tile:2 ~delay:500 (fun sh ->
        (* The manager registers only after initializing all context
           state in DRAM; retry until it appears. *)
        let rec connect_retry () =
          Shell.connect sh ~service:"ctxmgr" (fun r ->
              match r with
              | Error _ -> Sim.after (Shell.sim sh) 500 connect_retry
              | Ok conn ->
                let rec go () =
                  let ctx = Rng.zipf rng ~n:16 ~theta:0.9 in
                Shell.request sh conn ~opcode:Multi_ctx.Proto.opcode
                  (Multi_ctx.Proto.encode_req
                     { Multi_ctx.Proto.ctx; poison = false; data = bytes_of 32 })
                    (fun r ->
                      if Result.is_ok r then incr completed;
                      go ())
                in
                go ())
        in
        connect_retry ());
    Sim.run_for sim 200_000;
    (!completed, st)
  in
  let rows =
    List.map
      (fun resident ->
        let n, st = swap_run ~resident in
        let hit =
          float_of_int st.Ctx_manager.resident_hits
          /. float_of_int (max 1 (st.Ctx_manager.resident_hits + st.Ctx_manager.swap_ins))
        in
        [ i resident; i n; pct hit; i st.Ctx_manager.swap_ins;
          i st.Ctx_manager.swap_outs ])
      [ 16; 8; 4; 2; 1 ]
  in
  table
    [ "resident slots"; "ops completed"; "residency hit rate"; "swap-ins"; "swap-outs" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7 — scale-out of a replicated service *)

let e7_run ~replicas ~pipeline ~duration =
  let sim = Sim.create () in
  let board = Board.create sim in
  let tiles = Board.user_tiles board in
  (match tiles with
  | lb :: comp :: rest when List.length rest >= replicas ->
    if pipeline then begin
      (* Full §2 pipeline: N encode stages share ONE compressor. *)
      if replicas = 1 then
        Video_pipeline.install board.Board.kernel ~encoder_tile:lb
          ~compressor_tile:comp
      else
        Video_pipeline.install_replicated board.Board.kernel ~lb_tile:lb
          ~encoder_tiles:(List.filteri (fun idx _ -> idx < replicas) rest)
          ~compressor_tile:comp
    end
    else begin
      (* Pure scale-out: N standalone encoders behind the balancer. *)
      let backends =
        List.filteri (fun idx _ -> idx < replicas) (comp :: rest)
        |> List.mapi (fun idx tile ->
               let service = Printf.sprintf "enc%d" idx in
               Kernel.install board.Board.kernel ~tile
                 (Accels.video_encoder ~service ());
               service)
      in
      Kernel.install board.Board.kernel ~tile:lb
        (Accels.load_balancer ~service:"vpipe" ~backends ())
    end
  | _ -> failwith "not enough tiles");
  let rng = Rng.create ~seed:11 in
  let chunk = Rng.bytes_compressible rng 1024 ~redundancy:0.85 in
  let client = Board.client board ~port:1 ~gbps:100.0 () in
  Sim.after sim 3_000 (fun () ->
      Client.start_closed client
        { Client.service = "vpipe"; op = Accels.op_encode; gen = (fun _ -> chunk) }
        ~concurrency:16);
  Sim.run_for sim duration;
  Client.stop client;
  Client.completed client

let e7 () =
  header "E7" "scale-out: replicated encoders behind a load balancer";
  let duration = 300_000 in
  let replicas = [ 1; 2; 4; 8 ] in
  (* Both sweeps (4 replica counts each) run as one 8-way parallel batch;
     tables render afterwards in the original order. *)
  let counts ~pipeline =
    parallel_map (fun r -> e7_run ~replicas:r ~pipeline ~duration) replicas
  in
  let sweep counts label =
    subhead label;
    let base = max 1 (List.hd counts) in
    let rows =
      List.map2
        (fun r n ->
          [
            i r;
            i n;
            f1 (throughput_per_sec ~count:n ~cycles:duration /. 1000.0);
            f2 (float_of_int n /. float_of_int base);
          ])
        replicas counts
    in
    table [ "replicas"; "chunks"; "kchunks/s"; "speedup" ] rows
  in
  sweep (counts ~pipeline:false)
    "E7a: standalone encoder replicas (pure scale-out)";
  sweep (counts ~pipeline:true)
    "E7b: full pipeline, replicas share ONE compressor (Amdahl cap)";
  Printf.printf
    "\n(E7b's plateau is the shared third-party compressor saturating —\n composition makes the bottleneck stage visible and independently scalable)\n"

(* ------------------------------------------------------------------ *)
(* E8 — IPC microbenchmarks *)

let e8 () =
  header "E8" "IPC: RPC round-trip vs payload size and distance";
  let rtt ~dst_tile ~payload =
    let sim, k = mk_kernel () in
    Kernel.install k ~tile:dst_tile (Accels.echo ());
    let h = Stats.Histogram.create "rtt" in
    with_tile k ~tile:1 ~delay:500 (fun sh ->
        Shell.connect sh ~service:"echo" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              let rec go () =
                let t0 = Shell.now sh in
                Shell.request sh conn ~opcode:1 (bytes_of payload) (fun _ ->
                    Stats.Histogram.record h (Shell.now sh - t0);
                    go ())
              in
              go ()));
    Sim.run_for sim 100_000;
    p50 h
  in
  let hops dst =
    let a = Coord.of_index ~cols:4 1 and b = Coord.of_index ~cols:4 dst in
    Coord.hops a b
  in
  let dsts = [ 2; 6; 11 ] in
  let rows =
    List.map
      (fun payload ->
        i payload
        :: List.map (fun d -> i (rtt ~dst_tile:d ~payload)) dsts)
      [ 0; 64; 256; 1024; 4096 ]
  in
  table
    ("payload B"
    :: List.map (fun d -> Printf.sprintf "%d hops (cyc)" (hops d)) dsts)
    rows;
  subhead "connection setup (lookup + connect + capability mint)";
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:11 (Accels.echo ());
  let setup = ref 0 in
  with_tile k ~tile:1 ~delay:500 (fun sh ->
      let t0 = Shell.now sh in
      Shell.connect sh ~service:"echo" (fun _ -> setup := Shell.now sh - t0));
  Sim.run_for sim 20_000;
  Printf.printf "connection setup to a 4-hop peer: %d cycles (%.1f us)\n" !setup
    (us_of_cycles !setup)

(* ------------------------------------------------------------------ *)
(* E9 — QoS classes on the fabric *)

let e9 () =
  header "E9" "QoS: priority service latency under background congestion";
  let run ~qos ~background =
    let sim, k = mk_kernel ~qos () in
    Kernel.install k ~tile:5 (Accels.echo ());
    (* Background: four flooders pumping 1 KiB class-0 messages across
       the victim's column. *)
    if background then
      List.iter
        (fun tile ->
          Kernel.install k ~tile
            (Faulty.wrap
               [ Faulty.Flood_via_conn_at
                   { at = 2_000; service = "echo"; payload_bytes = 1024 } ]
               (Shell.behavior "bg")))
        [ 4; 6; 8; 12 ];
    let lat = Stats.Histogram.create "prio" in
    with_tile k ~tile:2 ~delay:500 (fun sh ->
        Shell.connect sh ~service:"echo" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              Sim.every (Shell.sim sh) 500 (fun () ->
                  let t0 = Shell.now sh in
                  Shell.request sh conn ~opcode:1 ~cls:1 (bytes_of 32) (fun r ->
                      if Result.is_ok r then
                        Stats.Histogram.record lat (Shell.now sh - t0)))));
    Sim.run_for sim 80_000;
    (p50 lat, p99 lat)
  in
  let b50, b99 = run ~qos:false ~background:false in
  let n50, n99 = run ~qos:false ~background:true in
  let q50, q99 = run ~qos:true ~background:true in
  table
    [ "config"; "priority p50 (cyc)"; "p99 (cyc)" ]
    [
      [ "idle fabric"; i b50; i b99 ];
      [ "congested, no QoS"; i n50; i n99 ];
      [ "congested, VC priority QoS"; i q50; i q99 ];
    ];
  subhead "E9b: monitor egress HOL — a tile serving bulk AND priority traffic";
  (* Fabric QoS cannot help when a tile's own bulk replies head-of-line
     block its priority replies inside the monitor; per-class egress
     queues do. *)
  let self_hol ~classes =
    (* The token bucket is the binding constraint (0.5 flits/cycle), so
       bulk replies drain slowly through the monitor. *)
    let monitor =
      { Monitor.default_config with Monitor.rate = 0.5; burst = 256;
        egress_classes = classes }
    in
    let sim, k = mk_kernel ~monitor ~qos:true () in
    (* One server answers bulk 4 KiB fetches (class 0) and tiny priority
       probes (class 1). *)
    Kernel.install k ~tile:5
      (Shell.behavior "mixed"
         ~on_boot:(fun sh -> Shell.register_service sh "mixed")
         ~on_message:(fun sh msg ->
           match msg.Message.kind with
           | Message.Data { opcode = 1 } ->
             Shell.respond sh msg ~opcode:1 ~cls:0 (bytes_of 1024)
           | Message.Data { opcode = 2 } ->
             Shell.respond sh msg ~opcode:2 ~cls:1 Bytes.empty
           | _ -> ()));
    (* Bulk consumers keep the victim's egress busy but bounded (closed
       loop, 2 outstanding each). *)
    List.iter
      (fun tile ->
        with_tile k ~tile ~delay:500 (fun sh ->
            Shell.connect sh ~service:"mixed" (fun r ->
                match r with
                | Error _ -> ()
                | Ok conn ->
                  let rec fetch () =
                    Shell.request sh conn ~opcode:1 ~cls:0 Bytes.empty (fun _ ->
                        fetch ())
                  in
                  for _ = 1 to 2 do fetch () done)))
      [ 1; 4 ];
    let lat = Stats.Histogram.create "probe" in
    with_tile k ~tile:9 ~delay:500 (fun sh ->
        Shell.connect sh ~service:"mixed" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              Sim.every (Shell.sim sh) 300 (fun () ->
                  let t0 = Shell.now sh in
                  Shell.request sh conn ~opcode:2 ~cls:1 Bytes.empty (fun r ->
                      if Result.is_ok r then
                        Stats.Histogram.record lat (Shell.now sh - t0)))));
    Sim.run_for sim 80_000;
    (p50 lat, p99 lat, Stats.Histogram.count lat)
  in
  let s50, s99, sn = self_hol ~classes:1 in
  let c50, c99, cn = self_hol ~classes:2 in
  table
    [ "monitor egress"; "probe p50 (cyc)"; "p99 (cyc)"; "probes ok" ]
    [
      [ "single FIFO"; i s50; i s99; i sn ];
      [ "per-class queues"; i c50; i c99; i cn ];
    ]

(* ------------------------------------------------------------------ *)
(* E10 — partial reconfiguration under load *)

let e10 () =
  header "E10" "partial reconfiguration: service swap under co-tenant load";
  let sim = Sim.create () in
  let board = Board.create sim in
  let kernel = board.Board.kernel in
  let enc_tile, kv_tile =
    match Board.user_tiles board with
    | a :: b :: _ -> (a, b)
    | _ -> failwith "tiles"
  in
  Kernel.install kernel ~tile:enc_tile (Accels.video_encoder ~service:"enc" ());
  let kv_b, _ = Kv.behavior () in
  Kernel.install kernel ~tile:kv_tile kv_b;
  (* Clients for both services. *)
  let enc_client = Board.client board ~port:1 () in
  let kv_client = Board.client board ~port:2 () in
  let bucket = 10_000 in
  let enc_series = Stats.Series.create "enc" ~interval:bucket in
  let kv_series = Stats.Series.create "kv" ~interval:bucket in
  let enc_fail = ref 0 in
  Client.on_response enc_client (fun rsp ->
      if rsp.Netproto.status = Netproto.Ok_resp then
        Stats.Series.record enc_series ~now:(Sim.now sim) 1.0
      else incr enc_fail);
  Client.on_response kv_client (fun rsp ->
      if rsp.Netproto.status = Netproto.Ok_resp then
        Stats.Series.record kv_series ~now:(Sim.now sim) 1.0);
  Sim.after sim 2_000 (fun () ->
      Client.start_closed enc_client
        { Client.service = "enc"; op = Accels.op_encode; gen = (fun _ -> bytes_of 512) }
        ~concurrency:2;
      Client.start_closed kv_client
        {
          Client.service = "kv";
          op = Kv.Proto.opcode;
          gen =
            (fun n ->
              if n mod 2 = 1 then Kv.Proto.encode_req (Kv.Proto.Put ("k", bytes_of 64))
              else Kv.Proto.encode_req (Kv.Proto.Get "k"));
        }
        ~concurrency:2);
  (* Swap the encoder for a new version at t=60k: 800 KiB bitstream at
     8 B/cycle = 100k cycles of PR. *)
  let pr_done = ref 0 in
  Sim.after sim 60_000 (fun () ->
      Kernel.reconfigure kernel ~tile:enc_tile ~bitstream_bytes:800_000
        (Accels.video_encoder ~service:"enc" ~q:3 ())
        ~on_done:(fun () -> pr_done := Sim.now sim));
  Sim.run_for sim 300_000;
  Client.stop enc_client;
  Client.stop kv_client;
  Printf.printf "PR window: cycle 60,000 -> %s (%s us)\n" (commas !pr_done)
    (f1 (us_of_cycles (!pr_done - 60_000)));
  let lookup series t =
    match List.assoc_opt t (Stats.Series.buckets series) with
    | Some v -> int_of_float v
    | None -> 0
  in
  let rows =
    List.map
      (fun t ->
        [
          Printf.sprintf "%dk-%dk" (t / 1000) ((t + bucket) / 1000);
          i (lookup enc_series t);
          i (lookup kv_series t);
        ])
      (List.init 15 (fun idx -> (idx * 2) * bucket))
  in
  table [ "cycles"; "encoder ok/10k"; "co-tenant KV ok/10k" ] rows;
  Printf.printf "\nencoder requests failed or unavailable during PR: %d\n" !enc_fail

(* ------------------------------------------------------------------ *)
(* E11 — remote OS services over the network (paper 6-Q3) *)

let e11 () =
  header "E11" "implementing an OS function in fabric vs on a remote CPU (6-Q3)";
  (* The same control operation served three ways: by a hardware service
     tile on the local NoC, and by a software handler on a remote host
     reached through the network tile (interrupt-driven and polling NIC). *)
  let local_rtt () =
    let sim, k = mk_kernel () in
    Kernel.install k ~tile:5 (Accels.echo ~cost:4 ());
    let h = Stats.Histogram.create "local" in
    with_tile k ~tile:1 ~delay:500 (fun sh ->
        Shell.connect sh ~service:"echo" (fun r ->
            match r with
            | Error _ -> ()
            | Ok conn ->
              let rec go () =
                let t0 = Shell.now sh in
                Shell.request sh conn ~opcode:1 (bytes_of 32) (fun _ ->
                    Stats.Histogram.record h (Shell.now sh - t0);
                    go ())
              in
              go ()));
    Sim.run_for sim 100_000;
    (p50 h, Stats.Histogram.count h)
  in
  let remote_rtt ~nic_cycles =
    let sim = Sim.create () in
    let board = Board.create sim in
    let remote_mac, remote_addr = Board.add_client_port board ~port:2 () in
    let _remote =
      Remote_service.create sim ~mac:remote_mac ~my_mac:remote_addr ~nic_cycles
        ~service_cycles:250
        ~handler:(fun ~service:_ ~op:_ body -> body)
        ()
    in
    let h = Stats.Histogram.create "remote" in
    (match Board.user_tiles board with
    | t :: _ ->
      Kernel.install board.Board.kernel ~tile:t
        (Shell.behavior "caller" ~on_boot:(fun sh ->
             Sim.after (Shell.sim sh) 2_000 (fun () ->
                 Shell.connect sh ~service:"net" (fun r ->
                     match r with
                     | Error _ -> ()
                     | Ok net ->
                       let rec go () =
                         let t0 = Shell.now sh in
                         Netsvc.remote_request sh net ~dst_mac:remote_addr
                           ~service:"ctl" ~op:1 (bytes_of 32) (fun _ ->
                             Stats.Histogram.record h (Shell.now sh - t0);
                             go ())
                       in
                       go ()))))
    | [] -> ());
    Sim.run_for sim 400_000;
    (p50 h, Stats.Histogram.count h)
  in
  let l50, _ = local_rtt () in
  let i50, _ = remote_rtt ~nic_cycles:500 in
  let p50v, _ = remote_rtt ~nic_cycles:75 in
  table
    [ "service placement"; "control-op RTT p50"; "us"; "vs local" ]
    [
      [ "hardware tile on local NoC"; i l50; f1 (us_of_cycles l50); "1.0x" ];
      [ "remote CPU, polling NIC (0.3us)"; i p50v; f1 (us_of_cycles p50v);
        f1 (float_of_int p50v /. float_of_int l50) ^ "x" ];
      [ "remote CPU, interrupt NIC (2us)"; i i50; f1 (us_of_cycles i50);
        f1 (float_of_int i50 /. float_of_int l50) ^ "x" ];
    ];
  Printf.printf
    "\n(a remote-CPU OS service costs two orders of magnitude in latency —\n fine for rare control-plane work such as PR policy or accounting, ruinous\n for data-path functions like allocation or translation: 6-Q3 quantified)\n"

let all () =
  t1 (); fig1 (); e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7 (); e8 (); e9 (); e10 (); e11 ()
