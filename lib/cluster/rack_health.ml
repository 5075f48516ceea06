(* The rack watchdog: alarm-driven failure detection for the cluster.

   Each board's MAC emits a tiny heartbeat frame every [hb_period]
   cycles (an event on the board's own simulator, so it fires across
   quiescence fast-forward and from any Par_sim partition). A watchdog
   NIC on the ToR switch collects them; a board whose heartbeat goes
   stale past [deadline] is declared down through
   [Cluster.report_down], which unregisters it and notifies
   subscribers — the shard client reshards and reissues in-flight work
   immediately, instead of waiting out its request timeout (E13b
   measures the gap against PR 2's timeout-driven failover window).

   Heartbeats are fire-and-forget raw Ethernet: boards need no reply,
   the watchdog grants nothing, and a killed board's frames simply die
   at its downed switch port — exactly the silence the deadline
   watches for. Boards that cannot speak the heartbeat dialect are
   unaffected: the frames carry a magic the network service's protocol
   decoder rejects, so a flooded copy reaching a board NIC is dropped
   there. *)

module Sim = Apiary_engine.Sim
module Mac = Apiary_net.Mac
module Frame = Apiary_net.Frame
module Board = Apiary_apps.Board

let hb_magic = "HB"

type t = {
  sim : Sim.t;  (* rack simulator (engine member 0) *)
  cluster : Cluster.t;
  mac : Mac.t;
  my_mac : int;
  hb_period : int;
  deadline : int;
  last_seen : int array;
  alive : bool array;
  mutable hb_seen : int;
  mutable log : (int * int) list;  (* (cycle, board), newest first *)
}

let board_alive t board = t.alive.(board)
let heartbeats_seen t = t.hb_seen
let detections t = List.rev t.log

let encode_hb board =
  let b = Bytes.create 3 in
  Bytes.blit_string hb_magic 0 b 0 2;
  Bytes.set_uint8 b 2 board;
  b

let decode_hb p =
  if Bytes.length p >= 3 && Bytes.sub_string p 0 2 = hb_magic then
    Some (Bytes.get_uint8 p 2)
  else None

let handle_frame t (f : Frame.t) =
  if f.Frame.dst <> t.my_mac then ()
  else
    match decode_hb f.Frame.payload with
    | None -> ()
    | Some board when board < Array.length t.last_seen ->
      t.hb_seen <- t.hb_seen + 1;
      t.last_seen.(board) <- Sim.now t.sim;
      (* A heartbeat from a board we declared dead: it is back on the
         network. Re-admission to rings/directory still comes from the
         explicit Cluster.restore announcement; we only re-arm the
         deadline so a second failure is detected again. *)
      t.alive.(board) <- true
    | Some _ -> ()

let check t =
  let now = Sim.now t.sim in
  Array.iteri
    (fun board seen ->
      if t.alive.(board) && now - seen > t.deadline then begin
        t.alive.(board) <- false;
        t.log <- (now, board) :: t.log;
        Cluster.report_down t.cluster ~board
      end)
    t.last_seen

let create ?(hb_period = 500) ?(deadline = 3_000) ?(gbps = 10.0) cluster =
  if deadline <= hb_period then
    invalid_arg "Rack_health.create: deadline must exceed hb_period";
  let mac, my_mac = Cluster.add_client ~gbps cluster in
  let n = Cluster.n_boards cluster in
  let t =
    {
      sim = Cluster.sim cluster;
      cluster;
      mac;
      my_mac;
      hb_period;
      deadline;
      last_seen = Array.make n 0;
      alive = Array.make n true;
      hb_seen = 0;
      log = [];
    }
  in
  Mac.set_rx mac (fun f -> handle_frame t f);
  (* Teach the ToR switch which port the watchdog hangs off before any
     heartbeat needs delivering: a self-addressed frame makes the FDB
     learn our source port, and is then discarded by the switch (its
     destination is behind the very port it arrived on) — a gratuitous
     announcement with no observable delivery. *)
  Sim.after t.sim 1 (fun () ->
      ignore (Mac.send t.mac (Frame.make ~dst:my_mac ~src:my_mac (encode_hb 0xff))));
  (* Board-side beacons, staggered one cycle apart per board id so the
     switch never sees a synchronized burst. *)
  List.iteri
    (fun i nd ->
      let bmac = (Node.board nd).Board.fpga_mac in
      let src = Node.mac_addr nd in
      Sim.every (Node.sim nd) ~start:(hb_period + i) hb_period (fun () ->
          (* Lossy by design: device backpressure just skips a beat. *)
          ignore (Mac.send bmac (Frame.make ~dst:my_mac ~src (encode_hb i)))))
    (Cluster.nodes cluster);
  (* Deadline sweep on the rack side. Starting a full deadline after
     boot gives the first beacons time to cross uplink + switch. *)
  Sim.every t.sim ~start:t.deadline hb_period (fun () -> check t);
  t
