(* Rack walkthrough: three Apiary boards behind one ToR switch.

   Run with:  dune exec examples/rack.exe

   Shows the cluster layer end to end: a KV service sharded across all
   three boards by consistent hashing, a cross-board call that looks
   exactly like a local one (the paper's "calls to other modules may be
   local or remote"), a board failure detected by client timeouts and
   resharded onto the survivors, and the board's return — all in one
   deterministic simulation, with a rack-wide span sample at the end. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Shell = Apiary_core.Shell
module Span = Apiary_obs.Span
module Kv = Apiary_accel.Kv
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Directory = Apiary_cluster.Directory
module Shard_client = Apiary_cluster.Shard_client

let () =
  (* One engine member per board plus one for the switch and external
     clients; the default sequential mode runs them in turn. *)
  let eng = Cluster.engine ~boards:3 () in
  let sim = Par_sim.sim eng 0 in
  let cluster = Cluster.create ~engine:eng sim ~boards:3 in

  (* One KV replica per board: each owns a slice of the keyspace. *)
  for b = 0 to 2 do
    ignore (Cluster.install cluster ~board:b ~service:"kv" (fst (Kv.behavior ())))
  done;
  (* An echo service on board 0 only — so board 2's call must cross the
     switch while board 0's stays on its own fabric. *)
  ignore
    (Cluster.install cluster ~board:0 ~service:"mirror"
       (Accels.echo ~service:"mirror" ~cost:4 ()));

  (* Location transparency: the same connect/call code, run from a board
     that hosts the service and from one that doesn't. *)
  let caller board =
    Shell.behavior "caller" ~on_boot:(fun sh ->
        Sim.after (Shell.sim sh) 3_000 (fun () ->
            Cluster.connect cluster ~board sh ~service:"mirror" (fun r ->
                match r with
                | Error e ->
                  Printf.printf "board %d: connect failed: %s\n" board
                    (Shell.rpc_error_to_string e)
                | Ok target ->
                  let t0 = Shell.now sh in
                  let kind =
                    match Cluster.target_board target with
                    | None -> "local tile"
                    | Some b -> Printf.sprintf "remote board %d" b
                  in
                  Cluster.call cluster ~board sh target ~op:Accels.op_echo
                    (Bytes.of_string "ping") (fun r ->
                      match r with
                      | Ok _ ->
                        Printf.printf
                          "board %d: 'mirror' resolved to %-14s  RTT %5d cycles\n"
                          board kind (Shell.now sh - t0)
                      | Error e ->
                        Printf.printf "board %d: call failed: %s\n" board
                          (Shell.rpc_error_to_string e)))))
  in
  ignore (Cluster.install cluster ~board:0 (caller 0));
  ignore (Cluster.install cluster ~board:2 (caller 2));

  (* An external client sharding PUT/GET traffic over all three boards,
     with client-side failover. *)
  let client =
    Shard_client.create cluster ~timeout:20_000 ~service:"kv"
      ~op:Kv.Proto.opcode ~route:Shard_client.By_key
      ~gen:(fun n ->
        let key = Printf.sprintf "user-%03d" (n mod 101) in
        let req =
          if n land 1 = 0 then Kv.Proto.Put (key, Bytes.make 32 'v')
          else Kv.Proto.Get key
        in
        (key, Kv.Proto.encode_req req))
  in
  Sim.after sim 5_000 (fun () -> Shard_client.start client ~concurrency:8);

  let report label =
    Printf.printf
      "[cycle %7d] %-18s completed %5d  failovers %2d  live boards: %s\n"
      (Sim.now sim) label
      (Shard_client.completed client)
      (Shard_client.failovers client)
      (String.concat ","
         (List.map string_of_int (Shard_client.live_boards client)))
  in

  (* Let the rack warm up, then pull the plug on board 1. *)
  Par_sim.run_for eng 100_000;
  report "steady state";
  Printf.printf "\n-- killing board 1 (ToR port down; nobody is told) --\n";
  Cluster.kill cluster ~board:1;
  Par_sim.run_for eng 100_000;
  report "after kill";
  Printf.printf "   directory now lists %d kv replica(s)\n"
    (List.length (Directory.replicas (Cluster.directory cluster) "kv"));

  Printf.printf "\n-- board 1 returns (re-registers, ring re-admits it) --\n";
  Cluster.restore cluster ~board:1;
  Par_sim.run_for eng 100_000;
  report "after restore";
  Printf.printf "   directory now lists %d kv replica(s)\n"
    (List.length (Directory.replicas (Cluster.directory cluster) "kv"));

  (* One rack-wide span capture: every event is stamped with its board —
     sampled while traffic still spans the rack. *)
  Span.reset ();
  Span.set_enabled true;
  Par_sim.run_for eng 2_000;
  Span.set_enabled false;
  Shard_client.stop client;
  Printf.printf "\nspan sample (tile-1 monitor events, all boards, by cycle):\n";
  let netsvc_events =
    List.stable_sort
      (fun (a : Span.event) (b : Span.event) ->
        compare (a.Span.ts, a.Span.board) (b.Span.ts, b.Span.board))
      (List.filter
         (fun (e : Span.event) ->
           e.Span.cat = "monitor" && e.Span.track = 1 && e.Span.ph = Span.Mark)
         (Span.events ()))
  in
  List.iteri
    (fun idx (e : Span.event) ->
      if idx < 8 then
        Printf.printf "  [%7d] board%d tile%d %s/%s corr=%d\n" e.Span.ts
          e.Span.board e.Span.track e.Span.cat e.Span.name e.Span.corr)
    netsvc_events;
  Span.reset ()
