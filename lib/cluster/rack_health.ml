(* The rack watchdog: alarm-driven failure detection for the cluster.

   Every board's telemetry agent ships a batch at least once per
   heartbeat period (a header-only one when it has nothing else to
   say), and the rack Collector reports each batch it accepts through
   [Cluster.report_alive]. The watchdog listens there; a board silent
   past [deadline] is declared down through [Cluster.report_down],
   which unregisters it and notifies subscribers — the shard client
   reshards and reissues in-flight work immediately, instead of waiting
   out its request timeout (E13b measures the gap against PR 2's
   timeout-driven failover window).

   A killed board's batches simply die at its downed switch port —
   exactly the silence the deadline watches for. *)

module Sim = Apiary_engine.Sim
module Agent = Apiary_obs.Agent

type t = {
  sim : Sim.t;  (* rack simulator (engine member 0) *)
  cluster : Cluster.t;
  deadline : int;
  last_seen : int array;
  alive : bool array;
  mutable hb_seen : int;
  mutable log : (int * int) list;  (* (cycle, board), newest first *)
}

let heartbeats_seen t = t.hb_seen
let detections t = List.rev t.log

let heard t board =
  t.hb_seen <- t.hb_seen + 1;
  t.last_seen.(board) <- Sim.now t.sim;
  (* A batch from a board we declared dead: it is back on the network.
     Re-admission to rings/directory still comes from the explicit
     Cluster.restore announcement; we only re-arm the deadline so a
     second failure is detected again. *)
  t.alive.(board) <- true

let check t =
  (* Without a Collector nothing reports proof of life, and every board
     would quietly be declared dead. *)
  if t.hb_seen = 0 then
    failwith
      "Rack_health: no board heard by the first sweep (the rack needs a \
       Collector)";
  let now = Sim.now t.sim in
  Array.iteri
    (fun board seen ->
      if t.alive.(board) && now - seen > t.deadline then begin
        t.alive.(board) <- false;
        t.log <- (now, board) :: t.log;
        Cluster.report_down t.cluster ~board
      end)
    t.last_seen

let create ?(deadline = 3_000) cluster =
  if deadline <= Agent.heartbeat_period then
    invalid_arg "Rack_health.create: deadline must exceed the heartbeat period";
  let n = Cluster.n_boards cluster in
  let t =
    {
      sim = Cluster.sim cluster;
      cluster;
      deadline;
      last_seen = Array.make n 0;
      alive = Array.make n true;
      hb_seen = 0;
      log = [];
    }
  in
  Cluster.on_board_alive cluster (heard t);
  (* Deadline sweep on the rack side. Starting a full deadline after
     boot gives the first beats time to cross uplink + switch. *)
  Sim.every t.sim ~start:deadline Agent.heartbeat_period (fun () -> check t);
  t
