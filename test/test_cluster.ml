(* Tests for the rack layer: directory resolution (local hit, remote
   hit, stale-route invalidation), shard-mapping stability under board
   join/leave, location-transparent cross-board calls, and failover with
   re-registration. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Shell = Apiary_core.Shell
module Kernel = Apiary_core.Kernel
module Accels = Apiary_accel.Accels
module Kv = Apiary_accel.Kv
module Cluster = Apiary_cluster.Cluster
module Directory = Apiary_cluster.Directory
module Shard = Apiary_cluster.Shard
module Shard_client = Apiary_cluster.Shard_client
module Node = Apiary_cluster.Node

let b = Bytes.of_string

(* ------------------------------------------------------------------ *)
(* Directory (pure rack-controller state) *)

(* A directory over a rack-shaped engine: member 0 is the controller,
   members 1-3 boards 0-2. Mutations become visible strictly after the
   announce delay, so [settle] runs the engine one cycle past it. *)
let delay = 16

let mk_directory () =
  let eng = Par_sim.create ~lookahead:delay ~n:4 () in
  (eng, Directory.create ~announce_delay:delay eng)

let settle eng = Par_sim.run_for eng (delay + 1)

let test_directory_local_hit () =
  let eng, d = mk_directory () in
  Directory.register d ~service:"kv" ~board:0 ~mac:0xA0;
  Directory.register d ~service:"kv" ~board:1 ~mac:0xA1;
  settle eng;
  match Directory.resolve d ~from_board:0 ~service:"kv" with
  | Some Directory.Local -> ()
  | Some (Directory.Remote _) -> Alcotest.fail "own replica should win"
  | None -> Alcotest.fail "unresolved"

let test_directory_remote_hit_and_cache () =
  let eng, d = mk_directory () in
  Directory.register d ~service:"kv" ~board:0 ~mac:0xA0;
  settle eng;
  let first =
    match Directory.resolve d ~from_board:2 ~service:"kv" with
    | Some (Directory.Remote r) ->
      Alcotest.(check int) "remote mac" 0xA0 r.Directory.mac;
      r
    | _ -> Alcotest.fail "expected remote"
  in
  (* Second resolve is served from the route cache. *)
  let hits0 = Directory.cache_hits d in
  (match Directory.resolve d ~from_board:2 ~service:"kv" with
  | Some (Directory.Remote r) ->
    Alcotest.(check int) "same route" first.Directory.board r.Directory.board
  | _ -> Alcotest.fail "expected cached remote");
  Alcotest.(check int) "cache hit counted" (hits0 + 1) (Directory.cache_hits d);
  Alcotest.(check bool) "unknown service unresolved" true
    (Directory.resolve d ~from_board:2 ~service:"nope" = None)

let test_directory_stale_route_invalidation () =
  let eng, d = mk_directory () in
  Directory.register d ~service:"kv" ~board:0 ~mac:0xA0;
  Directory.register d ~service:"kv" ~board:1 ~mac:0xA1;
  settle eng;
  let chosen =
    match Directory.resolve d ~from_board:2 ~service:"kv" with
    | Some (Directory.Remote r) -> r.Directory.board
    | _ -> Alcotest.fail "expected remote"
  in
  (* The chosen board dies: its cached route must not be handed out
     again; resolution moves to the survivor. *)
  Directory.report_failure d ~board:chosen ();
  settle eng;
  (match Directory.resolve d ~from_board:2 ~service:"kv" with
  | Some (Directory.Remote r) ->
    Alcotest.(check bool) "moved off the dead board" true
      (r.Directory.board <> chosen)
  | _ -> Alcotest.fail "expected a survivor");
  Alcotest.(check bool) "invalidation counted" true
    (Directory.invalidations d >= 1);
  (* Explicit single-route invalidation also forces a re-pick. *)
  Directory.invalidate d ~from_board:2 ~service:"kv";
  match Directory.resolve d ~from_board:2 ~service:"kv" with
  | Some (Directory.Remote _) -> ()
  | _ -> Alcotest.fail "survivor should still resolve"

(* A mutation stays hidden until one announce_delay has fully passed —
   the visibility rule every replica applies alike, whichever member
   announced it. *)
let test_directory_announce_delay () =
  let eng, d = mk_directory () in
  Directory.register d ~service:"kv" ~board:0 ~mac:0xA0;
  Alcotest.(check bool) "invisible before the delay" true
    (Directory.resolve d ~from_board:2 ~service:"kv" = None);
  Par_sim.run_until eng delay;  (* now = announce cycle + delay *)
  Alcotest.(check bool) "invisible at exactly now + delay" true
    (Directory.resolve d ~from_board:2 ~service:"kv" = None);
  Par_sim.run_for eng 1;  (* visibility is strictly after: a_time < now *)
  match Directory.resolve d ~from_board:2 ~service:"kv" with
  | Some (Directory.Remote r) -> Alcotest.(check int) "visible after" 0xA0 r.mac
  | _ -> Alcotest.fail "expected the registration to have landed"

(* Two announcements of one cycle from different members apply in
   source order at every replica, the announcer's own included: the
   controller's registration of kv on board 1 lands before board 0's
   failure report about board 1, so both replicas end without kv. *)
let test_directory_same_cycle_order () =
  let eng, d = mk_directory () in
  Sim.at (Par_sim.sim eng 0) 5 (fun () ->
      Directory.register d ~service:"kv" ~board:1 ~mac:0xA1);
  Sim.at (Par_sim.sim eng 1) 5 (fun () ->
      Directory.report_failure d ~from_board:0 ~board:1 ());
  Par_sim.run_until eng (5 + delay + 1);
  Alcotest.(check int) "controller's replica" 0
    (List.length (Directory.replicas d "kv"));
  Alcotest.(check bool) "board 0's replica" true
    (Directory.resolve d ~from_board:0 ~service:"kv" = None)

(* Debug builds trip on a replica touched from the wrong partition: the
   single-writer discipline the replicated directory is built on. *)
let test_directory_cross_partition_assert () =
  let eng = Par_sim.create ~lookahead:16 ~n:3 () in
  let d = Directory.create ~announce_delay:16 eng in
  Directory.register d ~service:"kv" ~board:0 ~mac:0xA0;
  (* Board 0's replica lives on partition 1; resolving it from member
     2's execution is a cross-domain access. *)
  Sim.at (Par_sim.sim eng 2) 1 (fun () ->
      ignore (Directory.resolve d ~from_board:0 ~service:"kv"));
  (match Par_sim.run_until eng 40 with
  | () -> Alcotest.fail "cross-partition resolve went undetected"
  | exception Assert_failure _ -> ());
  Par_sim.shutdown eng

(* ------------------------------------------------------------------ *)
(* Shard ring (pure) *)

let keys = List.init 300 (fun i -> Printf.sprintf "key-%04d" i)

let mapping ring =
  List.map (fun k -> (k, Shard.lookup ring k)) keys

let test_shard_spreads_keys () =
  let ring = Shard.create () in
  List.iter (Shard.add ring) [ 0; 1; 2; 3 ];
  let count board =
    List.length (List.filter (fun (_, o) -> o = Some board) (mapping ring))
  in
  List.iter
    (fun bd ->
      Alcotest.(check bool)
        (Printf.sprintf "board %d owns a fair share (%d)" bd (count bd))
        true
        (count bd > 30))
    [ 0; 1; 2; 3 ]

let test_shard_stability_under_leave_join () =
  let ring = Shard.create () in
  List.iter (Shard.add ring) [ 0; 1; 2; 3 ];
  let before = mapping ring in
  Shard.remove ring 2;
  let after = mapping ring in
  List.iter2
    (fun (k, o1) (_, o2) ->
      match o1 with
      | Some 2 ->
        (* Displaced keys land on survivors only. *)
        Alcotest.(check bool) (k ^ " resharded to a survivor") true
          (match o2 with Some bd -> bd <> 2 | None -> false)
      | o ->
        (* Keys on surviving boards must not move at all. *)
        Alcotest.(check bool) (k ^ " stable") true (o2 = o))
    before after;
  (* Re-join restores the original mapping exactly. *)
  Shard.add ring 2;
  List.iter2
    (fun (k, o1) (_, o2) ->
      Alcotest.(check bool) (k ^ " restored") true (o1 = o2))
    before (mapping ring)

let test_shard_rr_skips_dead () =
  let rr = Shard.Rr.create [ 0; 1; 2 ] in
  Shard.Rr.remove rr 1;
  let picks = List.init 4 (fun _ -> Shard.Rr.next rr) in
  Alcotest.(check bool) "alternates over live" true
    (picks = [ Some 0; Some 2; Some 0; Some 2 ]);
  Shard.Rr.add rr 1;
  Alcotest.(check int) "re-admitted" 3 (List.length (Shard.Rr.live rr))

(* ------------------------------------------------------------------ *)
(* Cross-board invocation (full simulation) *)

let test_cluster_local_and_remote_call () =
  let eng = Cluster.engine ~boards:2 () in
  let cluster = Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2 in
  ignore
    (Cluster.install cluster ~board:0 ~service:"mirror"
       (Accels.echo ~service:"mirror" ()));
  let local_reply = ref None and remote_reply = ref None in
  let caller board slot =
    Shell.behavior "caller" ~on_boot:(fun sh ->
        Sim.after (Shell.sim sh) 3_000 (fun () ->
            Cluster.connect cluster ~board sh ~service:"mirror" (fun r ->
                match r with
                | Error _ -> ()
                | Ok target ->
                  Cluster.call cluster ~board sh target ~op:Accels.op_echo
                    (b "ping") (fun r ->
                      match r with
                      | Ok body -> slot := Some (Bytes.to_string body)
                      | Error _ -> ()))))
  in
  ignore (Cluster.install cluster ~board:0 (caller 0 local_reply));
  ignore (Cluster.install cluster ~board:1 (caller 1 remote_reply));
  Par_sim.run_for eng 100_000;
  Alcotest.(check (option string)) "local call echoed" (Some "ping") !local_reply;
  Alcotest.(check (option string)) "remote call echoed" (Some "ping")
    !remote_reply

(* ------------------------------------------------------------------ *)
(* Failover: kill, reshard onto survivors, recover by re-registration *)

let test_cluster_failover_and_reregistration () =
  let eng = Cluster.engine ~boards:2 () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2 ~client_ports:2
  in
  let sim = Cluster.sim cluster in
  for bd = 0 to 1 do
    ignore
      (Cluster.install cluster ~board:bd ~service:"mirror"
         (Accels.echo ~service:"mirror" ()))
  done;
  let client =
    Shard_client.create cluster ~timeout:15_000 ~service:"mirror"
      ~op:Accels.op_echo ~route:Shard_client.By_key
      ~gen:(fun n -> (Printf.sprintf "key-%04d" (n mod 64), b "ping"))
  in
  Sim.after sim 1_000 (fun () -> Shard_client.start client ~concurrency:4);
  Sim.after sim 60_000 (fun () -> Cluster.kill cluster ~board:1);
  Par_sim.run_for eng 160_000;
  let completed_mid = Shard_client.completed client in
  Alcotest.(check bool) "timeouts detected the dead board" true
    (Shard_client.failovers client > 0);
  Alcotest.(check (list int)) "resharded onto the survivor" [ 0 ]
    (Shard_client.live_boards client);
  Alcotest.(check int) "directory dropped the dead board" 1
    (List.length (Directory.replicas (Cluster.directory cluster) "mirror"));
  (* Board comes back: re-registration re-admits it everywhere. *)
  Cluster.restore cluster ~board:1;
  Par_sim.run_for eng 100_000;
  Alcotest.(check (list int)) "ring re-admitted the board" [ 0; 1 ]
    (Shard_client.live_boards client);
  Alcotest.(check int) "directory re-registered" 2
    (List.length (Directory.replicas (Cluster.directory cluster) "mirror"));
  Shard_client.stop client;
  Alcotest.(check bool) "service continued throughout" true
    (Shard_client.completed client > completed_mid);
  Alcotest.(check bool) "board up again" true
    (Node.up (Cluster.node cluster 1))

(* ------------------------------------------------------------------ *)
(* The rack's argument checks *)

let raises what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_cluster_create_rejects_bad_engine () =
  let engine ?(lookahead = Cluster.lookahead) n =
    Par_sim.create ~lookahead ~n ()
  in
  raises "member count is not boards + 1" (fun () ->
      let eng = engine 2 in
      Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2);
  raises "lookahead above the uplink latency" (fun () ->
      let eng = engine ~lookahead:(Cluster.lookahead + 1) 3 in
      Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2);
  raises "sim is not member 0" (fun () ->
      let eng = engine 3 in
      Cluster.create ~engine:eng (Par_sim.sim eng 1) ~boards:2);
  raises "sim from another engine" (fun () ->
      Cluster.create ~engine:(engine 3) (Par_sim.sim (engine 3) 0) ~boards:2)

let test_post_to_board_checks () =
  let eng = Cluster.engine ~boards:2 () in
  let cluster = Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2 in
  raises "delay below the lookahead" (fun () ->
      Cluster.post_to_board cluster ~board:0 ~delay:(Cluster.lookahead - 1)
        ignore);
  raises "board past the last" (fun () ->
      Cluster.post_to_board cluster ~board:2 ~delay:Cluster.lookahead ignore);
  raises "negative board" (fun () ->
      Cluster.post_to_board cluster ~board:(-1) ~delay:Cluster.lookahead
        ignore);
  (* A legal command runs inside the board's own member, on time. *)
  let ran = ref None in
  Cluster.post_to_board cluster ~board:1 ~delay:Cluster.lookahead (fun () ->
      ran :=
        Some
          ( Par_sim.current_partition (),
            Sim.now (Node.sim (Cluster.node cluster 1)) ));
  Par_sim.run_for eng (2 * Cluster.lookahead);
  Alcotest.(check (option (pair (option int) int)))
    "ran on board 1's member at the delay"
    (Some (Some 2, Cluster.lookahead))
    !ran

let () =
  Alcotest.run "cluster"
    [
      ( "directory",
        [
          Alcotest.test_case "local hit" `Quick test_directory_local_hit;
          Alcotest.test_case "remote hit + cache" `Quick
            test_directory_remote_hit_and_cache;
          Alcotest.test_case "stale-route invalidation" `Quick
            test_directory_stale_route_invalidation;
          Alcotest.test_case "announce delay visibility" `Quick
            test_directory_announce_delay;
          Alcotest.test_case "same-cycle announcements in source order" `Quick
            test_directory_same_cycle_order;
          Alcotest.test_case "cross-partition write asserts" `Quick
            test_directory_cross_partition_assert;
        ] );
      ( "shard",
        [
          Alcotest.test_case "spreads keys" `Quick test_shard_spreads_keys;
          Alcotest.test_case "stable under leave/join" `Quick
            test_shard_stability_under_leave_join;
          Alcotest.test_case "round-robin skips dead" `Quick
            test_shard_rr_skips_dead;
        ] );
      ( "invocation",
        [
          Alcotest.test_case "local and remote calls" `Quick
            test_cluster_local_and_remote_call;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill, reshard, re-register" `Quick
            test_cluster_failover_and_reregistration;
        ] );
      ( "arguments",
        [
          Alcotest.test_case "create rejects a mismatched engine" `Quick
            test_cluster_create_rejects_bad_engine;
          Alcotest.test_case "post_to_board checks delay and board" `Quick
            test_post_to_board_checks;
        ] );
    ]
