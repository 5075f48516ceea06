module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Stats = Apiary_engine.Stats
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Shell = Apiary_core.Shell
module Kernel = Apiary_core.Kernel
module Switch = Apiary_net.Switch
module Netsvc = Apiary_net.Netsvc
module Netproto = Apiary_net.Netproto
module Mac = Apiary_net.Mac
module Link = Apiary_net.Link
module Board = Apiary_apps.Board

type t = {
  sim : Sim.t;
  engine : Par_sim.t;
  switch : Switch.t;
  directory : Directory.t;
  nodes : Node.t array;
  exported : (int, string list) Hashtbl.t;  (* board -> services, for re-reg *)
  mutable next_client_port : int;
  mutable on_up : (int -> unit) list;
  mutable on_down : (int -> unit) list;
  mutable on_alive : (int -> unit) list;
}

(* The board uplink is a 100G link (50 B/cycle) with 125 cycles of
   propagation; serialization adds at least one cycle, so no frame
   crosses it in under 126 — the lookahead a board-per-partition
   Par_sim may run with (Link.min_latency of the uplink). *)
let uplink_bytes_per_cycle = Board.gbps_to_bytes_per_cycle 100.0
let uplink_prop_cycles = 125
let lookahead = uplink_prop_cycles + 1

let engine ?mode ?domains ~boards () =
  Par_sim.create ?mode ~adaptive:true ?domains ~lookahead ~n:(boards + 1) ()

let create ?kernel_cfg ?(client_ports = 8) ?(switch_latency = 250)
    ?fdb_capacity ~engine sim ~boards =
  if boards <= 0 then invalid_arg "Cluster.create: boards must be positive";
  if Par_sim.n_domains engine <> boards + 1 then
    invalid_arg "Cluster.create: engine must have boards+1 domains";
  if Par_sim.lookahead engine > lookahead then
    invalid_arg "Cluster.create: engine lookahead exceeds uplink latency";
  if sim != Par_sim.sim engine 0 then
    invalid_arg "Cluster.create: sim must be the engine's member 0";
  (* Member 0 owns the switch, the external clients and every piece of
     rack-shared state (directory, shard rings, failure injection);
     member [id+1] owns board [id]'s entire fabric. Everything that
     crosses members — uplink frames on the split links, directory
     announcements, post_to_board commands — is staged through
     Par_sim.post at least one uplink latency ahead. *)
  let uplink id =
    Link.create_split ~sim_a:(Par_sim.sim engine (id + 1)) ~sim_b:sim
      ~post_to_a:(fun ~time fn ->
        Par_sim.post engine ~src:0 ~dst:(id + 1) ~time fn)
      ~post_to_b:(fun ~time fn ->
        Par_sim.post engine ~src:(id + 1) ~dst:0 ~time fn)
      ~bytes_per_cycle:uplink_bytes_per_cycle ~prop_cycles:uplink_prop_cycles
  in
  let switch =
    Switch.create ?fdb_capacity sim ~nports:(boards + client_ports)
      ~latency:switch_latency
  in
  let nodes =
    Array.init boards (fun id ->
        Node.create ?kernel_cfg ~ext_link:(uplink id)
          (Par_sim.sim engine (id + 1))
          ~switch ~id ~port:id)
  in
  {
    sim;
    engine;
    switch;
    directory = Directory.create ~announce_delay:lookahead engine;
    nodes;
    exported = Hashtbl.create 8;
    next_client_port = boards;
    on_up = [];
    on_down = [];
    on_alive = [];
  }

(* Controller-to-board command delivery: run [fn] inside board [board]'s
   member [delay] cycles from the controller's now. Commands ride the
   same staging protocol as uplink frames and directory announcements
   (so [delay >= lookahead]). Must be called from controller (member 0)
   execution. *)
let post_to_board t ~board ~delay fn =
  if delay < lookahead then
    invalid_arg "Cluster.post_to_board: delay must be >= Cluster.lookahead";
  if board < 0 || board >= Array.length t.nodes then
    invalid_arg "Cluster.post_to_board: no such board";
  Par_sim.post t.engine ~src:0 ~dst:(board + 1)
    ~time:(Sim.now t.sim + delay) fn

let sim t = t.sim
let switch t = t.switch
let directory t = t.directory
let n_boards t = Array.length t.nodes
let node t board = t.nodes.(board)
let nodes t = Array.to_list t.nodes

let install t ~board ?service behavior =
  let nd = t.nodes.(board) in
  match Node.alloc_tile nd with
  | None -> invalid_arg "Cluster.install: board has no free tile"
  | Some tile ->
    Kernel.install (Node.kernel nd) ~tile behavior;
    (match service with
    | None -> ()
    | Some service ->
      Directory.register t.directory ~service ~board ~mac:(Node.mac_addr nd);
      let prev = Option.value ~default:[] (Hashtbl.find_opt t.exported board) in
      if not (List.mem service prev) then
        Hashtbl.replace t.exported board (prev @ [ service ]));
    tile

(* ------------------------------------------------------------------ *)
(* Failure injection.

   A "killed" board is a network partition: its ToR port goes down, so
   frames to and from it are dropped (and counted by the switch). The
   board's fabric keeps simulating — exactly what a rack controller
   sees when a board's link dies. Nobody is notified: callers discover
   the failure through timeouts and report it to the directory. *)

let kill t ~board =
  let nd = t.nodes.(board) in
  Switch.set_port_up t.switch ~port:(Node.port nd) false;
  nd.Node.up <- false

let on_board_up t f = t.on_up <- t.on_up @ [ f ]
let on_board_down t f = t.on_down <- t.on_down @ [ f ]

(* A failure *detection* (the rack watchdog missing heartbeats, not the
   injection itself — kill notifies nobody): unregister the board's
   replicas and push the news to subscribers, so shard rings and load
   balancers stop aiming at the corpse before their own request
   timeouts would have told them. *)
let report_down t ~board =
  Directory.report_failure t.directory ~board ();
  List.iter (fun f -> f board) t.on_down

(* Proof of life: the collector reports every management batch it
   accepts, and the watchdog listens here, so neither depends on which
   of the two was created first. *)
let on_board_alive t f = t.on_alive <- t.on_alive @ [ f ]
let report_alive t ~board = List.iter (fun f -> f board) t.on_alive

(* Recovery is announced: the board re-registers its services with the
   directory (a gratuitous announcement, like gratuitous ARP) and
   subscribers — load balancers, shard rings — re-admit it. *)
let restore t ~board =
  let nd = t.nodes.(board) in
  Switch.set_port_up t.switch ~port:(Node.port nd) true;
  nd.Node.up <- true;
  List.iter
    (fun service ->
      Directory.register t.directory ~service ~board ~mac:(Node.mac_addr nd))
    (Option.value ~default:[] (Hashtbl.find_opt t.exported board));
  List.iter (fun f -> f board) t.on_up

(* ------------------------------------------------------------------ *)
(* External clients hang off the same ToR switch, on ports above the
   boards'. *)

let add_client ?(gbps = 10.0) t =
  let port = t.next_client_port in
  t.next_client_port <- port + 1;
  (* Client links live wholly on the rack simulator (member 0) — never
     on a board's member, which the switch-side delivery would then
     cross without staging. *)
  let link =
    Link.create t.sim
      ~bytes_per_cycle:(Board.gbps_to_bytes_per_cycle gbps)
      ~prop_cycles:125
  in
  Switch.attach t.switch ~port link Link.B;
  let mac = Mac.create t.sim Mac.Gen_10g link Link.A in
  (mac, 0x02_0000_0C0000 + port)

(* ------------------------------------------------------------------ *)
(* Location-transparent invocation (paper §1: "calls to other modules
   may be local or remote"). *)

type target =
  | Local of Shell.conn
  | Remote of { net : Shell.conn; board : int; mac : int; service : string }

let target_board = function Local _ -> None | Remote r -> Some r.board

let obs_mark sh ?args name =
  if Span.on () then
    Span.instant ~board:(Shell.obs_board sh) ?args ~cat:"cluster" ~name
      ~track:(Shell.tile sh) ~ts:(Shell.now sh) ()

let connect t ~board sh ~service k =
  match Directory.resolve t.directory ~from_board:board ~service with
  | None ->
    obs_mark sh ~args:[ ("service", service); ("outcome", "none") ] "resolve";
    k (Error (Shell.Nacked ("no replica of " ^ service)))
  | Some Directory.Local ->
    obs_mark sh ~args:[ ("service", service); ("outcome", "local") ] "resolve";
    Shell.connect sh ~service (fun r ->
        k (Result.map (fun conn -> Local conn) r))
  | Some (Directory.Remote rep) ->
    obs_mark sh
      ~args:
        [
          ("service", service);
          ("outcome", "remote");
          ("board", string_of_int rep.Directory.board);
        ]
      "resolve";
    Shell.connect sh ~service:"net" (fun r ->
        match r with
        | Error e -> k (Error e)
        | Ok net ->
          k (Ok (Remote { net; board = rep.Directory.board;
                          mac = rep.Directory.mac; service })))

let call t ~board sh target ~op body k =
  match target with
  | Local conn ->
    Shell.request sh conn ~opcode:op body (fun r ->
        k (Result.map (fun m -> m.Apiary_core.Message.payload) r))
  | Remote r ->
    (* The Shell.request underneath already opens the corr-keyed "rpc"
       span; this one frames the whole location-transparent invocation
       (with the target board) so failover retries group under it. *)
    let sid =
      if not (Span.on ()) then Span.null
      else
        Span.start ~board:(Shell.obs_board sh)
          ~args:
            [ ("service", r.service); ("board", string_of_int r.board) ]
          ~cat:"cluster" ~name:"call" ~track:(Shell.tile sh)
          ~ts:(Shell.now sh) ()
    in
    Netsvc.remote_request sh r.net ~dst_mac:r.mac ~service:r.service ~op body
      (fun res ->
        match res with
        | Ok rsp when rsp.Netproto.status = Netproto.Ok_resp ->
          Span.finish ~args:[ ("status", "ok") ] ~ts:(Shell.now sh) sid;
          k (Ok rsp.Netproto.body)
        | Ok rsp ->
          (* The remote board answered but could not serve: drop the
             cached route so the next resolve picks another replica. *)
          Directory.invalidate t.directory ~from_board:board ~service:r.service;
          obs_mark sh ~args:[ ("service", r.service) ] "invalidate";
          let what =
            if rsp.Netproto.status = Netproto.Service_unavailable then
              "service unavailable on remote board"
            else "remote error"
          in
          Span.finish
            ~args:[ ("status", Netproto.status_to_string rsp.Netproto.status) ]
            ~ts:(Shell.now sh) sid;
          k (Error (Shell.Nacked what))
        | Error e ->
          (* No answer at all: stale route, and on timeout presume the
             board dead until it re-announces. *)
          Directory.invalidate t.directory ~from_board:board ~service:r.service;
          obs_mark sh ~args:[ ("service", r.service) ] "invalidate";
          (match e with
          | Shell.Timeout ->
            Directory.report_failure t.directory ~from_board:board
              ~board:r.board ();
            obs_mark sh
              ~args:[ ("board", string_of_int r.board) ]
              "failover"
          | _ -> ());
          let status =
            match e with
            | Shell.Timeout -> "timeout"
            | Shell.Nacked _ -> "nacked"
            | Shell.Denied _ -> "denied"
          in
          Span.finish ~args:[ ("status", status) ] ~ts:(Shell.now sh) sid;
          k (Error e))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let register_metrics t =
  Array.iter
    (fun nd ->
      Kernel.register_metrics (Node.kernel nd)
        ~prefix:(Printf.sprintf "b%d" (Node.id nd)))
    t.nodes;
  Switch.register_metrics t.switch ~prefix:"rack";
  Registry.add_sampler ~name:"rack.directory" (fun () ->
      let set name v =
        Stats.Gauge.set (Registry.gauge ("rack.directory." ^ name))
          (float_of_int v)
      in
      set "lookups" (Directory.lookups t.directory);
      set "cache_hits" (Directory.cache_hits t.directory);
      set "invalidations" (Directory.invalidations t.directory))
