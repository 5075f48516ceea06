module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Frame = Apiary_net.Frame
module Mac = Apiary_net.Mac
module Netproto = Apiary_net.Netproto

type config = {
  nic_cycles : int;
  host_cores : int;
  host_service_cycles : int;
  host_per_byte_x16 : int;
  pcie_lat_cycles : int;
  pcie_bytes_per_cycle : int;
  accel_slots : int;
}

(* 250 MHz fabric: 1 us = 250 cycles. *)
let default_config =
  {
    nic_cycles = 500;  (* ~2 us interrupt + kernel path *)
    host_cores = 2;
    host_service_cycles = 375;  (* ~1.5 us software dispatch *)
    host_per_byte_x16 = 1;
    pcie_lat_cycles = 225;  (* ~0.9 us DMA *)
    pcie_bytes_per_cycle = 64;
    accel_slots = 1;
  }

type t = {
  sim : Sim.t;
  cfg : config;
  mac : Mac.t;
  my_mac : int;
  accel_cycles : int -> int;
  handler : int -> bytes -> bytes;
  cpu : Qserver.t;
  accel : Qserver.t;
  mutable pcie_free_at : int;
  mutable n_served : int;
}

let pcie_transfer t bytes cb =
  (* Shared DMA engine: latency plus serialized bandwidth. *)
  let now = Sim.now t.sim in
  let ser = max 1 (bytes / t.cfg.pcie_bytes_per_cycle) in
  let start = max now t.pcie_free_at in
  t.pcie_free_at <- start + ser;
  Sim.after t.sim (start + ser + t.cfg.pcie_lat_cycles - now) cb

let host_cost t bytes =
  t.cfg.host_service_cycles + (t.cfg.host_per_byte_x16 * (bytes / 16))

let handle_request t (f : Frame.t) (req : Netproto.request) =
  let blen = Bytes.length req.Netproto.body in
  (* NIC + kernel ingress *)
  Sim.after t.sim t.cfg.nic_cycles (fun () ->
      (* Host software dispatch *)
      Qserver.submit t.cpu ~cycles:(host_cost t blen) (fun () ->
          (* DMA to the accelerator *)
          pcie_transfer t blen (fun () ->
              Qserver.submit t.accel ~cycles:(t.accel_cycles blen) (fun () ->
                  let body = t.handler req.Netproto.op req.Netproto.body in
                  (* DMA back *)
                  pcie_transfer t (Bytes.length body) (fun () ->
                      (* Host completion + NIC egress *)
                      Qserver.submit t.cpu
                        ~cycles:(host_cost t (Bytes.length body)) (fun () ->
                          Sim.after t.sim t.cfg.nic_cycles (fun () ->
                              t.n_served <- t.n_served + 1;
                              let rsp =
                                {
                                  Netproto.rsp_id = req.Netproto.req_id;
                                  status = Netproto.Ok_resp;
                                  body;
                                }
                              in
                              ignore
                                (Mac.send t.mac
                                   (Frame.make ~dst:f.Frame.src ~src:t.my_mac
                                      (Netproto.encode_response rsp))))))))))

let create sim cfg ~mac ~my_mac ~accel_cycles ~handler =
  let t =
    {
      sim;
      cfg;
      mac;
      my_mac;
      accel_cycles;
      handler;
      cpu = Qserver.create sim ~servers:cfg.host_cores;
      accel = Qserver.create sim ~servers:cfg.accel_slots;
      pcie_free_at = 0;
      n_served = 0;
    }
  in
  Mac.set_rx mac (fun f ->
      match Netproto.decode_request f.Frame.payload with
      | Ok req -> handle_request t f req
      | Error _ -> ());
  t

let served t = t.n_served
let host_busy_cycles t = Qserver.busy_cycles t.cpu
let accel_busy_cycles t = Qserver.busy_cycles t.accel
