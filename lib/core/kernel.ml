module Sim = Apiary_engine.Sim
module Mesh = Apiary_noc.Mesh
module Coord = Apiary_noc.Coord
module Packet = Apiary_noc.Packet
module Dram = Apiary_mem.Dram
module Seg_alloc = Apiary_mem.Seg_alloc

type config = {
  mesh : Mesh.config;
  monitor : Monitor.config;
  monitor_overrides : (int * Monitor.config) list;
  dram_bytes : int;
}

let default_config =
  {
    mesh = Mesh.default_config;
    monitor = Monitor.default_config;
    monitor_overrides = [];
    dram_bytes = 64 * 1024 * 1024;
  }

let pr_bytes_per_cycle = 8
let name_service_tile = 0

type t = {
  k_sim : Sim.t;
  cfg : config;
  k_mesh : Message.t Mesh.t;
  k_alloc : Seg_alloc.t;
  k_flight : Apiary_obs.Flight.t;
  monitors : Monitor.t array;
  unregister_names : int -> unit;
  mutable fault_subs : (int -> string -> unit) list;
  mutable fault_log : (int * string) list;
}

let sim t = t.k_sim
let n_tiles t = t.cfg.mesh.Mesh.cols * t.cfg.mesh.Mesh.rows
let coord_of_tile t i = Coord.of_index ~cols:t.cfg.mesh.Mesh.cols i
let name_tile _ = name_service_tile

(* The memory service sits on the mesh's last tile, the far corner from
   the name service, where the controller pins would be. *)
let mem_tile t = n_tiles t - 1

let user_tiles t =
  List.filter
    (fun i -> i <> name_service_tile && i <> mem_tile t)
    (List.init (n_tiles t) (fun i -> i))

let mesh t = t.k_mesh
let allocator t = t.k_alloc
let flight t = t.k_flight
let monitor t i = t.monitors.(i)

let is_service_tile t i = i = name_service_tile || i = mem_tile t

let install t ~tile b =
  if is_service_tile t tile then
    invalid_arg (Printf.sprintf "Kernel.install: tile %d hosts an OS service" tile);
  Monitor.reset t.monitors.(tile) b

let restart_tile t ~tile b = Monitor.reset t.monitors.(tile) b

let reconfigure t ~tile ~bitstream_bytes b ~on_done =
  if is_service_tile t tile then
    invalid_arg "Kernel.reconfigure: cannot reconfigure an OS service tile";
  Monitor.set_offline t.monitors.(tile);
  t.unregister_names tile;
  let pr_cycles = max 1 (bitstream_bytes / pr_bytes_per_cycle) in
  Sim.after t.k_sim pr_cycles (fun () ->
      Monitor.reset t.monitors.(tile) b;
      on_done ())

let on_fault t f = t.fault_subs <- f :: t.fault_subs
let faults t = List.rev t.fault_log

let total_denied t =
  Array.fold_left (fun acc m -> acc + Monitor.denied m) 0 t.monitors

let total_msgs t =
  Array.fold_left (fun acc m -> acc + Monitor.msgs_out m) 0 t.monitors

let total_dropped t =
  Array.fold_left (fun acc m -> acc + Monitor.dropped m) 0 t.monitors

let set_obs_board t id =
  Mesh.set_obs_board t.k_mesh id;
  Apiary_obs.Flight.set_board t.k_flight id

module Registry = Apiary_obs.Registry
module Stats = Apiary_engine.Stats

let register_metrics t ~prefix =
  Mesh.register_metrics t.k_mesh ~prefix;
  (* Like the mesh's sampler, this one resolves its gauges and registers
     its histograms on its first run and keeps the handles. *)
  let gauges = ref [||] in
  Registry.add_sampler
    ~name:(prefix ^ ".kernel")
    (fun () ->
      if Array.length !gauges = 0 then begin
        gauges :=
          Array.map
            (fun name -> Registry.gauge (prefix ^ ".kernel." ^ name))
            [| "denied"; "dropped"; "msgs_out"; "faults" |];
        (* Per-service-tile added latency (the monitor checking cost). *)
        Array.iteri
          (fun i m ->
            Registry.register
              (Printf.sprintf "%s.kernel.t%d.added_latency" prefix i)
              (Registry.Histogram (Monitor.added_latency m)))
          t.monitors
      end;
      let set i v = Stats.Gauge.set !gauges.(i) (float_of_int v) in
      set 0 (total_denied t);
      set 1 (total_dropped t);
      set 2 (total_msgs t);
      set 3 (List.length t.fault_log))

let create sim cfg =
  let ntiles = cfg.mesh.Mesh.cols * cfg.mesh.Mesh.rows in
  let mem_tile = ntiles - 1 in
  assert (mem_tile <> name_service_tile);
  assert (mem_tile >= 0 && mem_tile < ntiles);
  let k_mesh = Mesh.create sim cfg.mesh in
  let k_dram = Dram.create sim ~size_bytes:cfg.dram_bytes in
  let k_alloc = Seg_alloc.create ~base:0 ~size:cfg.dram_bytes Seg_alloc.First_fit in
  (* The board's black box. Disabled (the default), it records nothing
     and changes no output; the CLI and bench also arm it explicitly. *)
  let k_flight = Apiary_obs.Flight.of_env () in
  let name_behavior, unregister_names = Services.name_service () in
  let mem_behavior = Services.mem_service k_dram k_alloc in
  (* Monitors are created below; fabric closures capture the array. *)
  let monitors_ref : Monitor.t array ref = ref [||] in
  let t_ref = ref None in
  let fire_fault tile reason =
    match !t_ref with
    | None -> ()
    | Some t ->
      t.fault_log <- (tile, reason) :: t.fault_log;
      t.unregister_names tile;
      List.iter (fun f -> f tile reason) t.fault_subs
  in
  let coord_of i = Coord.of_index ~cols:cfg.mesh.Mesh.cols i in
  let fabric_of tile =
    {
      Monitor.f_inject =
        (fun (m : Message.t) ->
          let dst_tile = m.Message.dst.Message.tile in
          if dst_tile < 0 || dst_tile >= ntiles then
            (* Physically unroutable address: the NoC would drop it. *)
            ()
          else
            let cls = min m.Message.cls (cfg.mesh.Mesh.vcs - 1) in
            Mesh.send k_mesh ~src:(coord_of tile) ~dst:(coord_of dst_tile) ~cls
              ~corr:m.Message.corr ~payload_bytes:(Message.size_bytes m) m);
      f_flits =
        (fun m ->
          Packet.flits_for ~flit_bytes:cfg.mesh.Mesh.flit_bytes
            ~payload_bytes:(Message.size_bytes m));
      f_store_of = (fun i -> Monitor.store !monitors_ref.(i));
      f_monitor_of = (fun i -> !monitors_ref.(i));
      f_name_addr = { Message.tile = name_service_tile; ep = Message.app_ep };
      f_mem_addr = { Message.tile = mem_tile; ep = Message.app_ep };
      f_on_fault = fire_fault;
    }
  in
  let monitor_cfg_of tile =
    match List.assoc_opt tile cfg.monitor_overrides with
    | Some c -> c
    | None ->
      if tile = name_service_tile || tile = mem_tile then
        (* Trusted OS services are not rate-policed: the memory service
           must stream DRAM replies at line rate. *)
        { cfg.monitor with rate = 1e9; burst = 1 lsl 20 }
      else cfg.monitor
  in
  let monitors =
    Array.init ntiles (fun tile ->
        let privileged = tile = name_service_tile || tile = mem_tile in
        let behavior =
          if tile = name_service_tile then name_behavior
          else if tile = mem_tile then mem_behavior
          else Monitor.idle_behavior
        in
        Monitor.create sim ~tile (monitor_cfg_of tile) (fabric_of tile)
          ~flight:k_flight ~privileged behavior)
  in
  monitors_ref := monitors;
  (* NoC delivery -> monitor ingress. *)
  Array.iteri
    (fun i m ->
      Mesh.set_receiver k_mesh (coord_of i) (fun pkt ->
          Monitor.ingress m pkt.Packet.payload))
    monitors;
  let t =
    {
      k_sim = sim;
      cfg;
      k_mesh;
      k_alloc;
      k_flight;
      monitors;
      unregister_names;
      fault_subs = [];
      fault_log = [];
    }
  in
  t_ref := Some t;
  t
