(* External load generator that drives a whole rack: requests are
   spread over the boards by consistent-hash sharding (keyed services
   like KV) or round-robin (stateless services), with client-side
   failure handling — a per-request timeout; on expiry the board is
   dropped from the shard ring (resharding onto survivors) and the work
   item reissued. Recovery announcements from the cluster re-admit the
   board.

   This is the piece the plain Net.Client lacks for multi-board runs:
   that client aims at one MAC and waits forever. *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Mac = Apiary_net.Mac
module Frame = Apiary_net.Frame
module Netproto = Apiary_net.Netproto

type route = By_key | Round_robin

type pending = { issued_at : int; board : int; work_id : int; sid : Span.id }

type t = {
  sim : Sim.t;
  cluster : Cluster.t;
  mac : Mac.t;
  my_mac : int;
  service : string;
  op : int;
  gen : int -> string * bytes;  (* work id -> (shard key, body) *)
  route : route;
  ring : Shard.t;
  rr : Shard.Rr.t;
  timeout : int;
  pending : (int, pending) Hashtbl.t;  (* req_id -> pending *)
  lat : Stats.Histogram.t;
  mutable next_req : int;
  mutable next_work : int;
  mutable issued : int;
  mutable completed : int;
  mutable errors : int;
  mutable failovers : int;
  mutable running : bool;
  mutable on_complete : now:int -> unit;
  mutable on_outcome : now:int -> req:int -> latency:int option -> unit;
}

(* Client span track: ports start at 0x02_0000_0C0000 (Cluster.add_client),
   so this is 3000 + switch port — rack-level rows in the export. *)
let obs_track t = 3000 + (t.my_mac - 0x02_0000_0C0000)

let pick_board t key =
  match t.route with
  | By_key -> Shard.lookup t.ring key
  | Round_robin -> Shard.Rr.next t.rr

let drop_board t board =
  Shard.remove t.ring board;
  Shard.Rr.remove t.rr board;
  (* Tell the rack controller too, so in-fabric resolution also stops
     routing to the dead board (it re-registers on recovery). *)
  Directory.report_failure (Cluster.directory t.cluster) ~board ()

let readmit_board t board =
  Shard.add t.ring board;
  Shard.Rr.add t.rr board

(* Reconcile ring + round-robin membership with the scheduler's view of
   which boards serve our service. Unlike drop_board this does not
   report anything to the directory — membership changes here are
   placement decisions, not failures. In-flight requests to a removed
   board still complete (or time out) normally; only new issues follow
   the updated membership. *)
let sync_boards t boards =
  let want = List.sort_uniq compare boards in
  let have = List.sort compare (Shard.boards t.ring) in
  List.iter
    (fun b ->
      if not (List.mem b have) then begin
        Shard.add t.ring b;
        Shard.Rr.add t.rr b
      end)
    want;
  List.iter
    (fun b ->
      if not (List.mem b want) then begin
        Shard.remove t.ring b;
        Shard.Rr.remove t.rr b
      end)
    have

let rec issue_work t work_id =
  let key, body = t.gen work_id in
  match pick_board t key with
  | None ->
    (* No live boards at all: retry once somebody comes back. *)
    t.errors <- t.errors + 1;
    Sim.after t.sim t.timeout (fun () -> if t.running then issue_work t work_id)
  | Some board ->
    t.next_req <- t.next_req + 1;
    let req_id = t.next_req in
    let dst = Node.mac_addr (Cluster.node t.cluster board) in
    let frame =
      Frame.make ~dst ~src:t.my_mac
        (Netproto.encode_request
           { Netproto.req_id; service = t.service; op = t.op; body })
    in
    (* One span per issue attempt: a failed-over work item shows as a
       timed-out span followed by a fresh one aimed at the new board. *)
    let sid =
      if not (Span.on ()) then Span.null
      else
        Span.start
          ~args:
            [
              ("req_id", string_of_int req_id);
              ("board", string_of_int board);
              ("work", string_of_int work_id);
            ]
          ~cat:"client" ~name:"request" ~track:(obs_track t)
          ~ts:(Sim.now t.sim) ()
    in
    Hashtbl.replace t.pending req_id
      { issued_at = Sim.now t.sim; board; work_id; sid };
    t.issued <- t.issued + 1;
    if not (Mac.send t.mac frame) then begin
      (* Device backpressure: back off briefly, keep the window full. *)
      Hashtbl.remove t.pending req_id;
      Span.finish ~args:[ ("status", "backpressure") ] ~ts:(Sim.now t.sim) sid;
      t.errors <- t.errors + 1;
      Sim.after t.sim 64 (fun () -> if t.running then issue_work t work_id)
    end
    else
      Sim.after t.sim t.timeout (fun () ->
          match Hashtbl.find_opt t.pending req_id with
          | None -> ()  (* answered in time *)
          | Some p ->
            (* Client-side failure detection: declare the board dead,
               reshard its keyspace onto survivors, reissue the work. *)
            Hashtbl.remove t.pending req_id;
            Span.finish ~args:[ ("status", "timeout") ] ~ts:(Sim.now t.sim)
              p.sid;
            if Span.on () then
              Span.instant
                ~args:[ ("board", string_of_int p.board) ]
                ~cat:"client" ~name:"failover" ~track:(obs_track t)
                ~ts:(Sim.now t.sim) ();
            t.failovers <- t.failovers + 1;
            t.on_outcome ~now:(Sim.now t.sim) ~req:req_id ~latency:None;
            drop_board t p.board;
            if t.running then issue_work t p.work_id)

(* Alarm-driven failover (the rack watchdog spoke, not our timeout):
   reshard away from the board and reissue every in-flight request
   aimed at it right now, instead of letting each one age out. The
   still-armed per-request timers find their pending entries gone and
   do nothing. *)
let board_down t board =
  Shard.remove t.ring board;
  Shard.Rr.remove t.rr board;
  let stale =
    Hashtbl.fold
      (fun req_id p acc -> if p.board = board then (req_id, p) :: acc else acc)
      t.pending []
  in
  (* Hashtbl.fold order is unspecified: sort for determinism. *)
  let stale = List.sort (fun (a, _) (b, _) -> compare a b) stale in
  List.iter
    (fun (req_id, p) ->
      Hashtbl.remove t.pending req_id;
      Span.finish ~args:[ ("status", "board_down") ] ~ts:(Sim.now t.sim) p.sid;
      if Span.on () then
        Span.instant
          ~args:[ ("board", string_of_int p.board); ("via", "watchdog") ]
          ~cat:"client" ~name:"failover" ~track:(obs_track t)
          ~ts:(Sim.now t.sim) ();
      t.failovers <- t.failovers + 1;
      t.on_outcome ~now:(Sim.now t.sim) ~req:req_id ~latency:None;
      if t.running then issue_work t p.work_id)
    stale

let fresh_work t =
  t.next_work <- t.next_work + 1;
  issue_work t t.next_work

let handle_frame t (f : Frame.t) =
  (* NIC dst filter: flooded frames for other hosts must not be matched
     against our pending table (req ids are per-client counters). *)
  if f.Frame.dst <> t.my_mac then ()
  else
  match Netproto.decode_response f.Frame.payload with
  | Error _ -> ()
  | Ok rsp -> (
    match Hashtbl.find_opt t.pending rsp.Netproto.rsp_id with
    | None -> ()  (* late reply from a board already declared dead *)
    | Some p ->
      Hashtbl.remove t.pending rsp.Netproto.rsp_id;
      (* A null id (capture off) closes nothing: build no arguments. *)
      if p.sid != Span.null then
        Span.finish
          ~args:[ ("status", Netproto.status_to_string rsp.Netproto.status) ]
          ~ts:(Sim.now t.sim) p.sid;
      if rsp.Netproto.status <> Netproto.Ok_resp then begin
        (* Service-level miss (e.g. Service_unavailable from a board
           whose replica just moved away: its netsvc drops the stale
           connection as it replies). Retryable by construction — back
           off briefly and reissue the work item, so a placement change
           never loses a request. *)
        t.errors <- t.errors + 1;
        t.on_outcome ~now:(Sim.now t.sim) ~req:rsp.Netproto.rsp_id
          ~latency:None;
        Sim.after t.sim 64 (fun () ->
            if t.running then issue_work t p.work_id)
      end
      else begin
        let lat = Sim.now t.sim - p.issued_at in
        Stats.Histogram.record t.lat lat;
        t.completed <- t.completed + 1;
        t.on_complete ~now:(Sim.now t.sim);
        t.on_outcome ~now:(Sim.now t.sim) ~req:rsp.Netproto.rsp_id
          ~latency:(Some lat);
        if t.running then fresh_work t
      end)

let create ?(vnodes = 64) ?(timeout = 25_000) ?gbps cluster ~service ~op ~route
    ~gen =
  let mac, my_mac = Cluster.add_client ?gbps cluster in
  let board_ids = List.init (Cluster.n_boards cluster) Fun.id in
  let ring = Shard.create ~vnodes () in
  List.iter (Shard.add ring) board_ids;
  let t =
    {
      sim = Cluster.sim cluster;
      cluster;
      mac;
      my_mac;
      service;
      op;
      gen;
      route;
      ring;
      rr = Shard.Rr.create board_ids;
      timeout;
      pending = Hashtbl.create 64;
      lat = Stats.Histogram.create (Printf.sprintf "shard%x.latency" my_mac);
      next_req = 0;
      next_work = 0;
      issued = 0;
      completed = 0;
      errors = 0;
      failovers = 0;
      running = false;
      on_complete = (fun ~now:_ -> ());
      on_outcome = (fun ~now:_ ~req:_ ~latency:_ -> ());
    }
  in
  Cluster.on_board_up cluster (fun b -> readmit_board t b);
  Cluster.on_board_down cluster (fun b -> board_down t b);
  Mac.set_rx mac (fun f -> handle_frame t f);
  t

let start t ~concurrency =
  assert (concurrency > 0);
  t.running <- true;
  (* Stagger the initial window to avoid lockstep artifacts. *)
  for i = 0 to concurrency - 1 do
    Sim.after t.sim (1 + i) (fun () -> if t.running then fresh_work t)
  done

let stop t = t.running <- false

let register_metrics t =
  let prefix = Printf.sprintf "client%d" (t.my_mac - 0x02_0000_0C0000) in
  Registry.add_sampler ~name:prefix (fun () ->
      let set name v =
        Stats.Gauge.set
          (Registry.gauge (prefix ^ "." ^ name))
          (float_of_int v)
      in
      set "issued" t.issued;
      set "completed" t.completed;
      set "errors" t.errors;
      set "failovers" t.failovers;
      set "live_boards" (List.length (Shard.boards t.ring));
      Registry.register (prefix ^ ".latency") (Registry.Histogram t.lat))

let issued t = t.issued
let completed t = t.completed
let errors t = t.errors
let failovers t = t.failovers
let latency t = t.lat
let live_boards t = Shard.boards t.ring
let set_on_complete t f = t.on_complete <- f
let set_on_outcome t f = t.on_outcome <- f
