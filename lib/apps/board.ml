module Sim = Apiary_engine.Sim
module Kernel = Apiary_core.Kernel
module Mac = Apiary_net.Mac
module Switch = Apiary_net.Switch
module Netsvc = Apiary_net.Netsvc
module Client = Apiary_net.Client
module Link = Apiary_net.Link

type t = {
  sim : Sim.t;
  kernel : Kernel.t;
  switch : Switch.t;
  fpga_mac : Mac.t;
  fpga_mac_addr : int;
  net_tile : int;
  net_stats : Netsvc.stats;
}

let fpga_mac_addr = 0x02_0000_00F0CA land 0xFFFFFFFFFFFF

let gbps_to_bytes_per_cycle g =
  (* bytes/cycle at 250 MHz: 10 Gb/s = 1.25 GB/s = 5 B/cycle. *)
  g *. 0.5

(* A private switch's ports: the board's on port 0 and seven client
   ports. *)
let switch_ports = 8

let create ?kernel_cfg ?(mac_gen = Mac.Gen_100g) ?attach:attach_to
    ?(mac_addr = fpga_mac_addr) ?ext_link sim =
  let kcfg = Option.value ~default:Kernel.default_config kernel_cfg in
  let kernel = Kernel.create sim kcfg in
  let switch, board_port =
    match attach_to with
    | Some (sw, port) -> (sw, port)
    | None -> (Switch.create sim ~nports:switch_ports ~latency:250, 0)
  in
  let gbps = match mac_gen with Mac.Gen_10g -> 10.0 | Mac.Gen_100g -> 100.0 in
  let board_link =
    match ext_link with
    | Some l -> l
    | None ->
      Link.create sim ~bytes_per_cycle:(gbps_to_bytes_per_cycle gbps)
        ~prop_cycles:125
  in
  Switch.attach switch ~port:board_port board_link Link.B;
  let fpga_mac = Mac.create sim mac_gen board_link Link.A in
  let net_tile =
    match Kernel.user_tiles kernel with
    | tile :: _ -> tile
    | [] -> invalid_arg "Board.create: no user tile for the network service"
  in
  let net_behavior, net_stats = Netsvc.behavior ~mac:fpga_mac ~my_mac:mac_addr () in
  Kernel.install kernel ~tile:net_tile net_behavior;
  { sim; kernel; switch; fpga_mac; fpga_mac_addr = mac_addr; net_tile; net_stats }

let add_client_port t ~port ?(gbps = 10.0) () =
  let link =
    Link.create t.sim ~bytes_per_cycle:(gbps_to_bytes_per_cycle gbps) ~prop_cycles:125
  in
  Switch.attach t.switch ~port link Apiary_net.Link.B;
  let mac = Mac.create t.sim Mac.Gen_10g link Apiary_net.Link.A in
  let addr = 0x02_0000_0C0000 + port in
  (mac, addr)

let client t ~port ?gbps () =
  let mac, addr = add_client_port t ~port ?gbps () in
  Client.create t.sim ~mac ~my_mac:addr ~server_mac:t.fpga_mac_addr

let user_tiles t =
  List.filter (fun i -> i <> t.net_tile) (Kernel.user_tiles t.kernel)
