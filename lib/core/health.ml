module Sim = Apiary_engine.Sim
module Perf = Apiary_obs.Perf
module Flight = Apiary_obs.Flight
module Mesh = Apiary_noc.Mesh
module Router = Apiary_noc.Router

let period = 200
let stuck_deadline = 2_000

(* Router input occupancy, in flits, and how many consecutive sweeps at
   or above it raise a congestion alarm. *)
let congestion_occ = 32
let congestion_checks = 3

type alarm =
  | Stuck_tile of { tile : int; stalled_for : int }
  | Congested_router of { tile : int; occ : int }

let alarm_to_string = function
  | Stuck_tile { tile; stalled_for } ->
    Printf.sprintf "stuck tile=%d stalled_for=%d" tile stalled_for
  | Congested_router { tile; occ } ->
    Printf.sprintf "congested tile=%d occ=%d" tile occ

type t = {
  kernel : Kernel.t;
  stuck_raised : bool array;
  cong_streak : int array;
  cong_raised : bool array;
  mutable subs : (alarm -> unit) list;
  mutable log : (int * alarm) list;  (* newest first *)
  mutable n_checks : int;
}

let on_alarm t f = t.subs <- f :: t.subs
let alarms t = List.rev t.log
let checks t = t.n_checks

let raise_alarm t now alarm =
  t.log <- (now, alarm) :: t.log;
  let tile, name =
    match alarm with
    | Stuck_tile { tile; _ } -> (tile, "stuck")
    | Congested_router { tile; _ } -> (tile, "congested")
  in
  Flight.record (Kernel.flight t.kernel) ~ts:now ~tile ~cat:"health" ~name
    ~args:[ ("alarm", alarm_to_string alarm) ] ();
  List.iter (fun f -> f alarm) t.subs

let check t =
  let k = t.kernel in
  let now = Sim.now (Kernel.sim k) in
  t.n_checks <- t.n_checks + 1;
  for tile = 0 to Kernel.n_tiles k - 1 do
    let m = Kernel.monitor k tile in
    Perf.incr (Monitor.perf m) Perf.heartbeats;
    (* Heartbeat deadline. Only a tile with queued work can miss it: an
       idle tile is healthy no matter how stale its progress timestamp,
       which is what keeps quiescence fast-forward (cycles skipped
       precisely because nothing had work) from tripping false alarms. *)
    (match Monitor.state m with
    | Monitor.Running ->
      let backlog = Monitor.rx_backlog m > 0 || Monitor.has_egress_backlog m in
      let stalled_for = now - Monitor.last_progress m in
      if backlog && stalled_for > stuck_deadline then begin
        if not t.stuck_raised.(tile) then begin
          t.stuck_raised.(tile) <- true;
          raise_alarm t now (Stuck_tile { tile; stalled_for })
        end
      end
      else t.stuck_raised.(tile) <- false
    | _ -> t.stuck_raised.(tile) <- false);
    (* Congestion: input occupancy pinned at/above the threshold for
       [congestion_checks] consecutive polls. One alarm per episode. *)
    let r = Mesh.router_at (Kernel.mesh k) (Kernel.coord_of_tile k tile) in
    let occ = Router.input_occupancy r in
    if occ >= congestion_occ then begin
      t.cong_streak.(tile) <- t.cong_streak.(tile) + 1;
      if t.cong_streak.(tile) >= congestion_checks && not t.cong_raised.(tile)
      then begin
        t.cong_raised.(tile) <- true;
        raise_alarm t now (Congested_router { tile; occ })
      end
    end
    else begin
      t.cong_streak.(tile) <- 0;
      t.cong_raised.(tile) <- false
    end
  done

let create k =
  let n = Kernel.n_tiles k in
  let t =
    {
      kernel = k;
      stuck_raised = Array.make n false;
      cong_streak = Array.make n 0;
      cong_raised = Array.make n false;
      subs = [];
      log = [];
      n_checks = 0;
    }
  in
  Sim.every (Kernel.sim k) period (fun () -> check t);
  t
