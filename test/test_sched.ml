(* Tests for the elastic scheduler: the placer's bin-packing respects
   the area model and justifies every shortfall (qcheck), placement
   stability under re-planning, directory single-replica unregister,
   shard-ring reconciliation with a scheduler placement, and the
   load-bearing determinism claim — a scheduled rack with live
   migrations is byte-identical between the engine's sequential (Seq)
   and parallel (Par) modes, decision log included. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Stats = Apiary_engine.Stats
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Directory = Apiary_cluster.Directory
module Collector = Apiary_cluster.Collector
module Shard_client = Apiary_cluster.Shard_client
module Placer = Apiary_sched.Placer
module Sched = Apiary_sched.Sched

(* ------------------------------------------------------------------ *)
(* Placer properties *)

(* Random racks (1-5 boards, 1-4 slots each, three part sizes) and
   random tenant mixes (three footprint sizes, reservations 0-2, caps
   up to reservation+2), all placed from scratch at their caps. *)
let gen_input =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 5)
         (pair (int_range 1 4) (oneofl [ 8_000; 30_000; 120_000 ])))
      (list_size (int_range 1 4)
         (triple (oneofl [ 5_000; 20_000; 80_000 ]) (int_range 0 2)
            (int_range 0 2))))

let print_input (caps, tens) =
  Printf.sprintf "caps=[%s] tenants=[%s]"
    (String.concat ";"
       (List.map (fun (t, c) -> Printf.sprintf "%dx%d" t c) caps))
    (String.concat ";"
       (List.map (fun (c, r, e) -> Printf.sprintf "%d/%d+%d" c r e) tens))

let build_input (caps_raw, tens_raw) =
  let caps =
    List.mapi
      (fun i (tiles, slot_cells) -> { Placer.board = i; tiles; slot_cells })
      caps_raw
  in
  let tenants =
    List.mapi
      (fun i (cells, reservation, extra) ->
        {
          Placer.name = Printf.sprintf "t%d" i;
          cells;
          state_bytes = 1_024;
          bitstream_bytes = 2_048;
          reservation;
          max_replicas = reservation + extra;
          slo_cycles = 5_000;
          capacity_hint = 10;
        })
      tens_raw
  in
  (caps, tenants)

let occupancy placement b =
  List.fold_left
    (fun a (_, bs) -> a + if List.mem b bs then 1 else 0)
    0 placement

(* Whatever the placer emits must pass its own resource validator, and
   a shortfall must be honest: every feasible board is either out of
   tiles or already hosts the tenant (replicas never double up). *)
let prop_place_valid_and_shortfalls_justified =
  QCheck.Test.make
    ~name:"place validates; shortfalls only when capacity is exhausted"
    ~count:300
    (QCheck.make ~print:print_input gen_input)
    (fun input ->
      let caps, tenants = build_input input in
      let targets = List.map (fun t -> (t, t.Placer.max_replicas)) tenants in
      let placement, short =
        Placer.place ~caps ~targets ~current:[] ~load:(fun _ -> 0)
      in
      let full b =
        let c = List.find (fun c -> c.Placer.board = b) caps in
        occupancy placement b >= c.Placer.tiles
      in
      let justified (name, missing) =
        missing = 0
        ||
        let tenant = List.find (fun t -> t.Placer.name = name) tenants in
        let mine =
          Option.value ~default:[] (List.assoc_opt name placement)
        in
        List.for_all
          (fun b -> full b || List.mem b mine)
          (Placer.feasible ~caps tenant)
      in
      Placer.validate ~caps ~tenants placement = []
      && List.for_all justified short)

(* Reservations are placed in targets order, so when the rack has
   enough feasible slots for the reservations alone, no reserved
   replica may be short. *)
let prop_reservations_honored =
  QCheck.Test.make ~name:"reservations placed whenever slots suffice"
    ~count:300
    (QCheck.make ~print:print_input gen_input)
    (fun input ->
      let caps, tenants = build_input input in
      let targets = List.map (fun t -> (t, t.Placer.reservation)) tenants in
      let _, short =
        Placer.place ~caps ~targets ~current:[] ~load:(fun _ -> 0)
      in
      (* Conservative sufficiency: every tenant fits every board, each
         reservation has enough distinct boards, and total reservations
         fit even if every board only had the smallest tile count (the
         balanced-spread greedy keeps per-board loads within one of
         each other, so this uniform bound is achievable). Only then do
         we demand zero short. *)
      let n = List.length caps in
      let min_tiles =
        List.fold_left (fun a c -> min a c.Placer.tiles) max_int caps
      in
      let wanted = List.fold_left (fun a (_, w) -> a + w) 0 targets in
      let universally_feasible =
        List.for_all
          (fun t ->
            List.length (Placer.feasible ~caps t) = n
            && t.Placer.reservation <= n)
          tenants
      in
      (not (universally_feasible && wanted <= n * min_tiles))
      || List.for_all (fun (_, m) -> m = 0) short)

(* Stability: re-planning around an existing placement keeps replicas
   where they are; only the delta moves. *)
let test_place_stability () =
  let caps =
    List.init 3 (fun b -> { Placer.board = b; tiles = 2; slot_cells = 50_000 })
  in
  let t =
    {
      Placer.name = "svc";
      cells = 10_000;
      state_bytes = 1_024;
      bitstream_bytes = 2_048;
      reservation = 1;
      max_replicas = 3;
      slo_cycles = 5_000;
      capacity_hint = 10;
    }
  in
  (* Current replica sits on board 2 (not the greedy first choice). *)
  let placement, short =
    Placer.place ~caps ~targets:[ (t, 2) ]
      ~current:[ ("svc", [ 2 ]) ]
      ~load:(fun _ -> 0)
  in
  Alcotest.(check (list (pair string int))) "no shortfall" [] short;
  let boards = Option.value ~default:[] (List.assoc_opt "svc" placement) in
  Alcotest.(check bool) "existing replica kept" true (List.mem 2 boards);
  Alcotest.(check int) "grown to target" 2 (List.length boards)

(* The area constraint bites: a tenant bigger than a small board's slot
   is only feasible on — and only ever placed on — the big boards. *)
let test_place_area_constraint () =
  let caps =
    [
      { Placer.board = 0; tiles = 2; slot_cells = 120_000 };
      { Placer.board = 1; tiles = 2; slot_cells = 8_000 };
    ]
  in
  let big =
    {
      Placer.name = "big";
      cells = 60_000;
      state_bytes = 1_024;
      bitstream_bytes = 2_048;
      reservation = 1;
      max_replicas = 2;
      slo_cycles = 5_000;
      capacity_hint = 10;
    }
  in
  Alcotest.(check (list int)) "feasible = big board" [ 0 ]
    (Placer.feasible ~caps big);
  let placement, short =
    Placer.place ~caps ~targets:[ (big, 2) ] ~current:[] ~load:(fun _ -> 0)
  in
  Alcotest.(check (list int)) "placed on board 0 only" [ 0 ]
    (Option.value ~default:[] (List.assoc_opt "big" placement));
  (* Second replica cannot double up on board 0: honest shortfall. *)
  Alcotest.(check (list (pair string int))) "one short" [ ("big", 1) ] short

(* ------------------------------------------------------------------ *)
(* Directory: single-replica unregister (the scheduler's drain path) *)

let test_directory_unregister_replica () =
  (* Controller plus boards 0-2; mutations land one announce delay on. *)
  let eng = Par_sim.create ~lookahead:16 ~n:4 () in
  let d = Directory.create ~announce_delay:16 eng in
  let settle () = Par_sim.run_for eng 17 in
  Directory.register d ~service:"kv" ~board:0 ~mac:0xA0;
  Directory.register d ~service:"kv" ~board:1 ~mac:0xA1;
  Directory.register d ~service:"log" ~board:0 ~mac:0xB0;
  settle ();
  (* Warm a cached route so the prune path is exercised too. *)
  ignore (Directory.resolve d ~from_board:2 ~service:"kv");
  Directory.unregister d ~service:"kv" ~board:0;
  settle ();
  let live = Directory.replicas d "kv" in
  Alcotest.(check int) "one kv replica left" 1 (List.length live);
  Alcotest.(check int) "survivor is board 1" 1
    (List.hd live).Directory.board;
  (* Resolution never hands out the drained replica again... *)
  (match Directory.resolve d ~from_board:2 ~service:"kv" with
  | Some (Directory.Remote r) ->
    Alcotest.(check int) "route moved to survivor" 1 r.Directory.board
  | _ -> Alcotest.fail "kv should still resolve remotely");
  (* ...even from the drained board itself (its local replica is gone). *)
  (match Directory.resolve d ~from_board:0 ~service:"kv" with
  | Some (Directory.Remote r) ->
    Alcotest.(check int) "board 0 now calls out" 1 r.Directory.board
  | Some Directory.Local -> Alcotest.fail "drained replica still local"
  | None -> Alcotest.fail "kv should resolve");
  (* The board's other services are untouched — unlike a failure report. *)
  match Directory.resolve d ~from_board:0 ~service:"log" with
  | Some Directory.Local -> ()
  | _ -> Alcotest.fail "log on board 0 must survive the kv drain"

(* ------------------------------------------------------------------ *)
(* Shard_client.sync_boards: ring follows the placement, directory
   untouched *)

let test_sync_boards_reconciles_ring () =
  let eng = Cluster.engine ~boards:3 () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:3 ~client_ports:2
  in
  for bd = 0 to 2 do
    ignore
      (Cluster.install cluster ~board:bd ~service:"svc"
         (Accels.echo ~service:"svc" ()))
  done;
  (* Let the boards boot and their service announcements reach the
     directory (one uplink each). *)
  Par_sim.run_for eng 10_000;
  let client =
    Shard_client.create cluster ~service:"svc" ~op:Accels.op_echo
      ~route:Shard_client.Round_robin
      ~gen:(fun _ -> ("", Bytes.of_string "ping"))
  in
  Alcotest.(check (list int)) "starts with all boards" [ 0; 1; 2 ]
    (List.sort compare (Shard_client.live_boards client));
  let d = Cluster.directory cluster in
  let inv0 = Directory.invalidations d in
  (* Placement shrinks to board 1: boards 0 and 2 leave the ring. *)
  Shard_client.sync_boards client [ 1 ];
  Alcotest.(check (list int)) "ring follows placement" [ 1 ]
    (Shard_client.live_boards client);
  (* A placement change is not a failure: nothing was reported. *)
  Alcotest.(check int) "no directory invalidations" inv0
    (Directory.invalidations d);
  Alcotest.(check int) "kv replicas unaffected" 3
    (List.length (Directory.replicas d "svc"));
  (* Growth is re-admitted, duplicates collapse, order is canonical. *)
  Shard_client.sync_boards client [ 2; 0; 2 ];
  Alcotest.(check (list int)) "membership reconciled" [ 0; 2 ]
    (List.sort compare (Shard_client.live_boards client))

(* ------------------------------------------------------------------ *)
(* Determinism: a scheduled rack with migrations, Seq vs Par *)

(* Aggressive mini config so the 120k-cycle run sees real scheduler
   traffic: 1k-cycle load reports, 8k epochs, migration thresholds
   matched to the ~6-15 msgs/report a saturated board moves at cost-300
   service. *)
let mini_cfg =
  {
    Sched.default_config with
    Sched.report_period = 1_000;
    epoch = 8_000;
    up_epochs = 2;
    down_epochs = 3;
    hot_load = 5;
    cold_load = 3;
    cooldown = 20_000;
    drain_delay = 12_000;
  }

let mini_spec =
  {
    Placer.name = "svc";
    cells = 10_000;
    state_bytes = 2_048;
    bitstream_bytes = 4_096;
    reservation = 1;
    max_replicas = 2;
    slo_cycles = 5_000;
    capacity_hint = 26;
  }

let run_sched_rack mode =
  let boards = 3 in
  let cycles = 120_000 in
  let eng = Cluster.engine ~mode ~boards () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards ~client_ports:2
  in
  let sim = Cluster.sim cluster in
  let collector = Collector.create cluster in
  let sched =
    Sched.create ~config:mini_cfg cluster ~collector
      ~slot_cells:(fun _ -> 50_000)
  in
  Sched.add_tenant sched ~spec:mini_spec
    ~behavior:(fun () -> Accels.echo ~service:"svc" ~cost:300 ());
  let client =
    Shard_client.create cluster ~timeout:10_000 ~service:"svc"
      ~op:Accels.op_echo ~route:Shard_client.Round_robin
      ~gen:(fun _ -> ("", Bytes.make 32 'x'))
  in
  Sched.watch sched ~tenant:"svc" client;
  Sched.start sched;
  Sim.after sim 2_000 (fun () -> Shard_client.start client ~concurrency:6);
  Par_sim.run_until eng cycles;
  Shard_client.stop client;
  Par_sim.shutdown eng;
  Collector.detach collector;
  let t = Sched.totals sched in
  let stats =
    Printf.sprintf
      "issued=%d completed=%d errors=%d failovers=%d place=%d mig=%d \
       up=%d/down=%d defer=%d"
      (Shard_client.issued client)
      (Shard_client.completed client)
      (Shard_client.errors client)
      (Shard_client.failovers client)
      t.Sched.placements t.Sched.migrations t.Sched.scale_ups
      t.Sched.scale_downs t.Sched.deferred
  in
  (stats, Sched.decisions_json sched, t.Sched.migrations)

let test_sched_par_matches_seq () =
  let stats_seq, json_seq, mig_seq = run_sched_rack Par_sim.Seq in
  let stats_par, json_par, mig_par = run_sched_rack Par_sim.Par in
  Alcotest.(check string) "client+sched stats identical" stats_seq stats_par;
  Alcotest.(check string) "decision logs byte-identical" json_seq json_par;
  (* The run must actually have moved a tenant, or the check is hollow. *)
  Alcotest.(check bool) "migrations occurred" true
    (mig_seq >= 1 && mig_par >= 1)

(* ------------------------------------------------------------------ *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sched"
    [
      ( "placer",
        [
          qc prop_place_valid_and_shortfalls_justified;
          qc prop_reservations_honored;
          Alcotest.test_case "stability" `Quick test_place_stability;
          Alcotest.test_case "area constraint" `Quick
            test_place_area_constraint;
        ] );
      ( "directory",
        [
          Alcotest.test_case "unregister one replica" `Quick
            test_directory_unregister_replica;
        ] );
      ( "shard_client",
        [
          Alcotest.test_case "sync_boards reconciles ring" `Quick
            test_sync_boards_reconciles_ring;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "Par == Seq with migrations" `Quick
            test_sched_par_matches_seq;
        ] );
    ]
