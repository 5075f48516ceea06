(* Federated name server: rack-wide service -> replica registry with
   per-(board, service) sticky routes.

   Models the paper's remote control plane (§6-Q3). The directory is
   replicated one copy per engine member: replica 0 is the rack
   controller's view on member 0, replica [b + 1] lives on board [b]'s
   member and serves that board. Registry mutations (register,
   unregister, failure reports) are *announcements* posted to every
   replica — the announcer's own included — through the engine's
   boundary-merge protocol (Par_sim.post), which delivers them in its
   canonical (time, source member, sequence) order; each replica applies
   them in delivery order once their time has passed, so all replicas
   evolve through the same registry states in every engine mode.
   [announce_delay] is the wire latency and must be at least the engine
   lookahead.

   Routes (the sticky per-(from_board, service) remote picks) are
   replica-local and written only by the owning member — the write
   paths assert this against {!Par_sim.current_partition}. Failure
   detection is caller-driven: a failed remote call
   invalidates the cached route and reports the replica's board; the
   directory never observes failures on its own. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim

type replica = { board : int; mac : int }
type resolution = Local | Remote of replica

type update =
  | U_register of { service : string; board : int; mac : int }
  | U_unregister of { board : int }
  | U_unregister_service of { service : string; board : int }

type ann = { a_time : int; u : update }

(* One route per service in each replica: replica [b + 1] resolves
   only for board [b], and replica 0 never resolves. [picked] is the
   sticky remote pick, kept until invalidated or until its board
   unregisters the service. *)
type route = {
  mutable picked : replica option;
  mutable rot : int;  (* rotation for fresh remote picks *)
}

type rep = {
  part : int;  (* owning engine partition *)
  rsim : Sim.t;
  registry : (string, replica list) Hashtbl.t;  (* registration order *)
  routes : (string, route) Hashtbl.t;
  inbox : ann Queue.t;  (* delivered, not yet applied; in delivery order *)
  mutable lookups : int;
  mutable cache_hits : int;
  mutable invalidations : int;
}

type t = {
  reps : rep array;  (* one per engine member *)
  eng : Par_sim.t;
  delay : int;
}

(* Replica state may only be written by its owning partition's
   execution (or by coordinator code between windows, which holds every
   partition quiescent). The assert runs in every build: no build
   profile of this workspace passes -noassert. *)
let owner_check rep =
  assert (
    match Par_sim.current_partition () with
    | None -> true
    | Some p -> p = rep.part)

let mk_rep part rsim =
  {
    part;
    rsim;
    registry = Hashtbl.create 16;
    routes = Hashtbl.create 16;
    inbox = Queue.create ();
    lookups = 0;
    cache_hits = 0;
    invalidations = 0;
  }

let create ~announce_delay eng =
  if announce_delay < Par_sim.lookahead eng then
    invalid_arg
      "Directory.create: announce_delay must be >= the engine lookahead";
  {
    reps =
      Array.init (Par_sim.n_domains eng) (fun p -> mk_rep p (Par_sim.sim eng p));
    eng;
    delay = announce_delay;
  }

(* Member 0 is the controller; board [b] lives on member [b + 1]. *)
let home board = board + 1
let rep_for t from_board = t.reps.(home from_board)

(* ------------------------------------------------------------------ *)
(* Announcement protocol *)

let registered rep service =
  Option.value ~default:[] (Hashtbl.find_opt rep.registry service)

(* Drop a sticky pick of [board], counted as an invalidation. *)
let unpick rep route board =
  match route.picked with
  | Some r when r.board = board ->
    route.picked <- None;
    rep.invalidations <- rep.invalidations + 1
  | _ -> ()

let apply rep = function
  | U_register { service; board; mac } ->
    let rs = registered rep service in
    if not (List.exists (fun r -> r.board = board) rs) then
      Hashtbl.replace rep.registry service (rs @ [ { board; mac } ])
  | U_unregister { board } ->
    let keys = Hashtbl.fold (fun s _ acc -> s :: acc) rep.registry [] in
    List.iter
      (fun s ->
        let rs = List.filter (fun r -> r.board <> board) (registered rep s) in
        if rs = [] then Hashtbl.remove rep.registry s
        else Hashtbl.replace rep.registry s rs)
      keys;
    (* Prune sticky routes to the dead board — the replicated equivalent
       of dropping its cached routes, counted identically. *)
    Hashtbl.iter (fun _ route -> unpick rep route board) rep.routes
  | U_unregister_service { service; board } ->
    (* One (service, board) pair — the scheduler draining a single
       replica off a live board, not a whole-board failure. Sticky
       routes that picked this replica are pruned so the next resolve
       re-spreads over the survivors. *)
    (match Hashtbl.find_opt rep.registry service with
    | None -> ()
    | Some rs ->
      let rs = List.filter (fun r -> r.board <> board) rs in
      if rs = [] then Hashtbl.remove rep.registry service
      else Hashtbl.replace rep.registry service rs);
    Option.iter
      (fun route -> unpick rep route board)
      (Hashtbl.find_opt rep.routes service)

(* An announcement made at cycle [c] becomes visible to reads strictly
   after [c + delay] — one delay for the wire, visible the next cycle —
   in every replica and every engine mode alike. *)
let drain rep =
  let now = Sim.now rep.rsim in
  while
    (not (Queue.is_empty rep.inbox)) && (Queue.peek rep.inbox).a_time < now
  do
    owner_check rep;
    apply rep (Queue.pop rep.inbox).u
  done

let announce t ~src u =
  let rep_src = t.reps.(src) in
  owner_check rep_src;
  let a = { a_time = Sim.now rep_src.rsim + t.delay; u } in
  Array.iteri
    (fun d rep ->
      Par_sim.post t.eng ~src ~dst:d ~time:a.a_time (fun () ->
          Queue.push a rep.inbox))
    t.reps

(* ------------------------------------------------------------------ *)
(* Public mutations *)

let register t ~service ~board ~mac =
  announce t ~src:0 (U_register { service; board; mac })

let unregister t ~service ~board =
  announce t ~src:0 (U_unregister_service { service; board })

let report_failure t ?from_board ~board () =
  let src = match from_board with None -> 0 | Some b -> home b in
  announce t ~src (U_unregister { board })

(* ------------------------------------------------------------------ *)
(* Resolution *)

let route_for rep service =
  match Hashtbl.find_opt rep.routes service with
  | Some route -> route
  | None ->
    let route = { picked = None; rot = 0 } in
    Hashtbl.add rep.routes service route;
    route

let resolve t ~from_board ~service =
  let rep = rep_for t from_board in
  owner_check rep;
  drain rep;
  rep.lookups <- rep.lookups + 1;
  let rs = registered rep service in
  if List.exists (fun r -> r.board = from_board) rs then Some Local
  else
    let route = route_for rep service in
    match route.picked with
    | Some r when List.exists (fun x -> x.board = r.board) rs ->
      rep.cache_hits <- rep.cache_hits + 1;
      Some (Remote r)
    | _ -> (
      match rs with
      | [] ->
        route.picked <- None;
        None
      | rs ->
        (* Spread first-time resolutions across remote replicas —
           offset by the asking board so different boards start on
           different picks — then stick to the choice until it is
           invalidated. *)
        let r = List.nth rs ((from_board + route.rot) mod List.length rs) in
        route.rot <- route.rot + 1;
        route.picked <- Some r;
        Some (Remote r))

let invalidate t ~from_board ~service =
  let rep = rep_for t from_board in
  owner_check rep;
  drain rep;
  match Hashtbl.find_opt rep.routes service with
  | Some ({ picked = Some _; _ } as route) ->
    route.picked <- None;
    rep.invalidations <- rep.invalidations + 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Controller-view accessors (replica 0) *)

let replicas t service =
  let rep = t.reps.(0) in
  drain rep;
  registered rep service

(* Counters are summed across replicas; each replica counts only its own
   boards' lookups, so the sums are engine-mode-independent. *)
let sum_reps t f = Array.fold_left (fun acc rep -> acc + f rep) 0 t.reps
let lookups t = sum_reps t (fun r -> r.lookups)
let cache_hits t = sum_reps t (fun r -> r.cache_hits)
let invalidations t = sum_reps t (fun r -> r.invalidations)
