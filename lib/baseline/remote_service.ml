module Sim = Apiary_engine.Sim
module Frame = Apiary_net.Frame
module Mac = Apiary_net.Mac
module Netproto = Apiary_net.Netproto

type t = {
  sim : Sim.t;
  mac : Mac.t;
  my_mac : int;
  nic_cycles : int;
  cpu : Qserver.t;
  handler : service:string -> op:int -> bytes -> bytes;
}

(* The remote host's 2 cores, and 250 cycles (1 us) of handler time per
   request. *)
let cores = 2
let service_cycles = 250

let create sim ~mac ~my_mac ?(nic_cycles = 500) ~handler () =
  let t =
    {
      sim;
      mac;
      my_mac;
      nic_cycles;
      cpu = Qserver.create sim ~servers:cores;
      handler;
    }
  in
  Mac.set_rx mac (fun f ->
      match Netproto.decode_request f.Frame.payload with
      | Error _ -> ()
      | Ok req ->
        Sim.after t.sim t.nic_cycles (fun () ->
            Qserver.submit t.cpu ~cycles:service_cycles (fun () ->
                let body =
                  t.handler ~service:req.Netproto.service ~op:req.Netproto.op
                    req.Netproto.body
                in
                Sim.after t.sim t.nic_cycles (fun () ->
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
                            (Netproto.encode_response rsp)))))));
  t
