module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Rng = Apiary_engine.Rng

type t = {
  sim : Sim.t;
  mac : Mac.t;
  my_mac : int;
  server_mac : int;
  rng : Rng.t;
  pending : (int, int) Hashtbl.t;  (* req_id -> issue cycle *)
  lat : Stats.Histogram.t;
  mutable next_id : int;
  mutable n_issued : int;
  mutable n_completed : int;
  mutable n_errors : int;
  mutable running : bool;
  mutable resp_hook : Netproto.response -> unit;
}

type workload = { service : string; op : int; gen : int -> bytes }

let handle_response t (rsp : Netproto.response) on_complete =
  match Hashtbl.find_opt t.pending rsp.Netproto.rsp_id with
  | None -> ()
  | Some issued_at ->
    Hashtbl.remove t.pending rsp.Netproto.rsp_id;
    let lat = Sim.now t.sim - issued_at in
    Stats.Histogram.record t.lat lat;
    t.n_completed <- t.n_completed + 1;
    if rsp.Netproto.status <> Netproto.Ok_resp then t.n_errors <- t.n_errors + 1;
    t.resp_hook rsp;
    on_complete ()

let create sim ~mac ~my_mac ~server_mac =
  {
    sim;
    mac;
    my_mac;
    server_mac;
    rng = Rng.create ~seed:(0xC11E57 + my_mac);
    pending = Hashtbl.create 64;
    lat = Stats.Histogram.create (Printf.sprintf "client%x.latency" my_mac);
    next_id = 0;
    n_issued = 0;
    n_completed = 0;
    n_errors = 0;
    running = false;
    resp_hook = (fun _ -> ());
  }

let issue t (w : workload) =
  t.next_id <- t.next_id + 1;
  let req =
    {
      Netproto.req_id = t.next_id;
      service = w.service;
      op = w.op;
      body = w.gen t.next_id;
    }
  in
  let frame =
    Frame.make ~dst:t.server_mac ~src:t.my_mac (Netproto.encode_request req)
  in
  Hashtbl.replace t.pending t.next_id (Sim.now t.sim);
  t.n_issued <- t.n_issued + 1;
  if not (Mac.send t.mac frame) then begin
    (* Device backpressure: count as an error and forget it. *)
    Hashtbl.remove t.pending t.next_id;
    t.n_errors <- t.n_errors + 1
  end

let start_closed t w ~concurrency =
  assert (concurrency > 0);
  t.running <- true;
  Mac.set_rx t.mac (fun f ->
      match Netproto.decode_response f.Frame.payload with
      | Error _ -> ()
      | Ok rsp ->
        handle_response t rsp (fun () -> if t.running then issue t w));
  (* Stagger the initial window slightly to avoid lockstep artifacts. *)
  for i = 0 to concurrency - 1 do
    Sim.after t.sim (1 + i) (fun () -> if t.running then issue t w)
  done

let start_open t w ~rate =
  assert (rate > 0.0);
  t.running <- true;
  Mac.set_rx t.mac (fun f ->
      match Netproto.decode_response f.Frame.payload with
      | Error _ -> ()
      | Ok rsp -> handle_response t rsp (fun () -> ()));
  let rec arm () =
    if t.running then begin
      let gap = max 1 (int_of_float (Rng.exponential t.rng ~mean:(1.0 /. rate))) in
      Sim.after t.sim gap (fun () ->
          if t.running then begin
            issue t w;
            arm ()
          end)
    end
  in
  arm ()

let stop t = t.running <- false
let issued t = t.n_issued
let completed t = t.n_completed
let errors t = t.n_errors
let latency t = t.lat
let on_response t f = t.resp_hook <- f
