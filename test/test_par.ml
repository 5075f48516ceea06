(* The conservative parallel-in-time engine's load-bearing claim is
   determinism: for a fixed seed the partitioned simulation — in either
   execution mode — must be byte-identical to the reference. Two layers
   of checks:

   - Par_sim unit: barrier merge order is (time, src, seq) regardless of
     posting order, a post inside the open window raises, a member's
     exception reaches the caller from any domain, and random window
     schedules (chunked, adaptive or fixed, Seq or Par on any number of
     domains) deliver the same events.
   - Rack (E12-small shape): a 2-board cluster under a client-driven
     sharded workload produces an identical span capture (monitor events,
     NoC hops, netsvc, switch and rpc spans) and client stats in Seq and
     Par modes. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Stats = Apiary_engine.Stats
module Span = Apiary_obs.Span
module Export = Apiary_obs.Export
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Shard_client = Apiary_cluster.Shard_client

(* ------------------------------------------------------------------ *)
(* Par_sim unit *)

let test_merge_order () =
  let eng = Par_sim.create ~lookahead:5 ~n:3 () in
  let log = ref [] in
  (* Members 2 then 1 stage posts for the same cycle; the barrier must
     reorder them to (time, src, seq) no matter who posted first. *)
  List.iter
    (fun src ->
      Sim.at (Par_sim.sim eng src) 1 (fun () ->
          Par_sim.post eng ~src ~dst:0 ~time:12 (fun () ->
              log := (12, src, 'b') :: !log);
          Par_sim.post eng ~src ~dst:0 ~time:10 (fun () ->
              log := (10, src, 'a') :: !log)))
    [ 2; 1 ];
  Par_sim.run_until eng 20;
  Alcotest.(check (list (triple int int char)))
    "delivery order is (time, src, seq)"
    [ (10, 1, 'a'); (10, 2, 'a'); (12, 1, 'b'); (12, 2, 'b') ]
    (List.rev !log)

let test_lookahead_violation_raises () =
  let eng = Par_sim.create ~lookahead:5 ~n:2 () in
  Sim.at (Par_sim.sim eng 1) 1 (fun () ->
      (* Cycle 3 is inside the open window [0, 5): the receiving member
         may already have simulated past it. *)
      Par_sim.post eng ~src:1 ~dst:0 ~time:3 (fun () -> ()));
  match Par_sim.run_until eng 10 with
  | () -> Alcotest.fail "lookahead violation went undetected"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the violation" true
      (String.length msg > 0
      && String.sub msg 0 12 = "Par_sim.post")

(* Member 1 of three runs on the worker domain when two domains share
   them. Its exception must surface from [run_until] on the caller once
   the window's barrier is reached, and the pool must still shut down. *)
let test_worker_member_raises () =
  let eng = Par_sim.create ~mode:Par_sim.Par ~domains:2 ~lookahead:4 ~n:3 () in
  Sim.at (Par_sim.sim eng 1) 10 (fun () -> failwith "member 1");
  (match Par_sim.run_until eng 100 with
  | () -> Alcotest.fail "the member's exception was lost"
  | exception Failure msg ->
    Alcotest.(check string) "re-raised on the caller" "member 1" msg);
  Alcotest.(check (option int)) "no partition marker left on the caller" None
    (Par_sim.current_partition ());
  Par_sim.shutdown eng

let test_single_partition () =
  let eng = Par_sim.create ~lookahead:4 ~n:1 () in
  let hits = ref 0 in
  Sim.every (Par_sim.sim eng 0) 10 (fun () -> incr hits);
  Par_sim.run_until eng 100;
  (* Fires at 10, 20, …, 90 — cycle 100 is the target, not executed. *)
  Alcotest.(check int) "events ran" 9 !hits;
  Alcotest.(check int) "clock advanced" 100 (Par_sim.now eng)

(* ------------------------------------------------------------------ *)
(* Rack cross-check (E12-small shape): Seq vs Par *)

let hist_sig h =
  Printf.sprintf "n=%d sum=%d min=%d max=%d p50=%d p99=%d"
    (Stats.Histogram.count h) (Stats.Histogram.sum h)
    (Stats.Histogram.min_value h) (Stats.Histogram.max_value h)
    (Stats.Histogram.percentile h 50.0) (Stats.Histogram.percentile h 99.0)

let run_rack ?domains mode cycles =
  let boards = 2 in
  let eng = Cluster.engine ~mode ?domains ~boards () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards ~client_ports:2
  in
  for bd = 0 to boards - 1 do
    ignore
      (Cluster.install cluster ~board:bd ~service:"mirror"
         (Accels.echo ~service:"mirror" ()))
  done;
  let client =
    Shard_client.create cluster ~timeout:15_000 ~service:"mirror"
      ~op:Accels.op_echo ~route:Shard_client.By_key
      ~gen:(fun n ->
        (Printf.sprintf "key-%04d" (n mod 64), Bytes.of_string "ping"))
  in
  Span.reset ();
  Span.set_enabled true;
  Sim.after (Cluster.sim cluster) 1_000 (fun () ->
      Shard_client.start client ~concurrency:4);
  Par_sim.run_until eng cycles;
  Span.set_enabled false;
  Shard_client.stop client;
  Par_sim.shutdown eng;
  let evs = Span.events () in
  Alcotest.(check int) "nothing dropped at the cap" 0 (Span.dropped ());
  Span.reset ();
  (* The capture must really span the rack: both boards and the ToR. *)
  Alcotest.(check (list int)) "events from both boards and the ToR" [ -1; 0; 1 ]
    (List.sort_uniq compare (List.map (fun (e : Span.event) -> e.Span.board) evs));
  let trace = Export.chrome_trace_string evs in
  let stats =
    Printf.sprintf "issued=%d completed=%d errors=%d failovers=%d lat[%s]"
      (Shard_client.issued client) (Shard_client.completed client)
      (Shard_client.errors client) (Shard_client.failovers client)
      (hist_sig (Shard_client.latency client))
  in
  (stats, trace)

let test_rack_par_matches_seq () =
  let cycles = 60_000 in
  let stats_seq, trace_seq = run_rack Par_sim.Seq cycles in
  let stats_par, trace_par = run_rack Par_sim.Par cycles in
  Alcotest.(check string) "client stats identical" stats_seq stats_par;
  Alcotest.(check int) "trace length identical" (String.length trace_seq)
    (String.length trace_par);
  Alcotest.(check bool) "traces byte-identical" true (trace_seq = trace_par);
  (* The workload must actually have crossed partition boundaries. *)
  Alcotest.(check bool) "requests completed" true
    (String.length stats_seq > 0 && trace_seq <> "")

(* Fewer domains than members must not move a byte: members are
   isolated within a window, so which domain runs which member is pure
   scheduling. *)
let test_rack_fewer_domains_matches () =
  let cycles = 60_000 in
  let stats_seq, trace_seq = run_rack Par_sim.Seq cycles in
  let stats_two, trace_two = run_rack ~domains:2 Par_sim.Par cycles in
  Alcotest.(check string) "stats identical on two domains" stats_seq stats_two;
  Alcotest.(check bool) "traces identical on two domains" true
    (trace_seq = trace_two)

let test_domains_clamped_and_reported () =
  let eng = Par_sim.create ~domains:99 ~lookahead:2 ~n:3 () in
  Alcotest.(check int) "clamped to n" 3 (Par_sim.domains_used eng);
  Alcotest.(check int) "n_domains is member count" 3 (Par_sim.n_domains eng);
  let eng2 = Par_sim.create ~domains:2 ~lookahead:2 ~n:3 () in
  Alcotest.(check int) "explicit cap kept" 2 (Par_sim.domains_used eng2)

(* ------------------------------------------------------------------ *)
(* qcheck properties: canonical delivery and window bounds.

   Synthetic cross-partition workload: member k fires every (3 + k)
   cycles and stamps another member at [now + lookahead + jitter]. Any
   member may be the target, as in the rack's star: all sources aim at
   the member the clock points at (the next one when that is
   themselves), so several often land on one destination in the same
   cycle and the (time, src, seq) tie order is exercised. Destination
   and jitter are pure functions of time (no shared state). Logs are
   per-member — written only by the owning domain — and concatenated
   after the run, so the fingerprint is race-free under real Par
   execution. *)

let run_synth ?(restart = false) ~mode ~adaptive ~lookahead ~n ~domains ~total
    chunks =
  let eng = Par_sim.create ~mode ~adaptive ~domains ~lookahead ~n () in
  let logs = Array.make n [] in
  for k = 0 to n - 1 do
    let src_sim = Par_sim.sim eng k in
    Sim.every src_sim (3 + k) (fun () ->
        let now = Sim.now src_sim in
        let d = now / 8 mod n in
        let dst = if d = k then (k + 1) mod n else d in
        let time = now + lookahead + (now mod 3) in
        Par_sim.post eng ~src:k ~dst ~time (fun () ->
            logs.(dst) <- (Sim.now (Par_sim.sim eng dst), k) :: logs.(dst)))
  done;
  (* Random window placement: advance in caller-chosen chunks, then to
     the common target. Canonical delivery makes the result independent
     of this schedule. With [restart] the worker pool is shut down after
     every chunk and respawned by the next. *)
  List.iter
    (fun c ->
      Par_sim.run_until eng (min total (Par_sim.now eng + c));
      if restart then Par_sim.shutdown eng)
    chunks;
  Par_sim.run_until eng total;
  Par_sim.shutdown eng;
  let buf = Buffer.create 256 in
  Array.iteri
    (fun d l ->
      List.iter
        (fun (t, s) -> Buffer.add_string buf (Printf.sprintf "%d<%d@%d;" d s t))
        (List.rev l))
    logs;
  (Buffer.contents buf, Par_sim.window_stats eng)

type synth_cfg = {
  c_n : int;
  c_domains : int;  (* Par runs only *)
  c_lookahead : int;
  c_adaptive : bool;
  c_chunks : int list;
}

let cfg_arb =
  let gen =
    QCheck.Gen.(
      let* c_n = int_range 2 4 in
      let* c_domains = int_range 1 c_n in
      let* c_lookahead = int_range 1 6 in
      let* c_adaptive = bool in
      let* c_chunks = list_size (int_range 0 6) (int_range 1 97) in
      return { c_n; c_domains; c_lookahead; c_adaptive; c_chunks })
  in
  let print c =
    Printf.sprintf "{n=%d; domains=%d; lookahead=%d; adaptive=%b; chunks=[%s]}"
      c.c_n c.c_domains c.c_lookahead c.c_adaptive
      (String.concat ";" (List.map string_of_int c.c_chunks))
  in
  QCheck.make ~print gen

let synth_of c mode ~chunks =
  run_synth ~mode ~adaptive:c.c_adaptive ~lookahead:c.c_lookahead ~n:c.c_n
    ~domains:c.c_domains ~total:500 chunks

(* The fixed-window Seq run is the reference schedule: adaptive widening
   must not move a single delivery. *)
let prop_delivery_canonical =
  QCheck.Test.make ~count:25 ~name:"Seq == Par across random schedules"
    cfg_arb (fun c ->
      let fp_chunked, _ = synth_of c Par_sim.Seq ~chunks:c.c_chunks in
      let fp_whole, _ = synth_of c Par_sim.Seq ~chunks:[] in
      let fp_par, _ = synth_of c Par_sim.Par ~chunks:c.c_chunks in
      let fp_fixed, _ =
        synth_of { c with c_adaptive = false } Par_sim.Seq ~chunks:[]
      in
      fp_chunked = fp_whole && fp_whole = fp_par && fp_whole = fp_fixed
      && String.length fp_whole > 0)

let prop_window_bounds =
  QCheck.Test.make ~count:25 ~name:"window widths stay in [1, bound]"
    cfg_arb (fun c ->
      let _, (count, min_w, max_w) = synth_of c Par_sim.Seq ~chunks:c.c_chunks in
      count >= 1 && min_w >= 1
      && max_w <= 500
      && (c.c_adaptive || max_w <= c.c_lookahead))

(* Workers respawned after [shutdown] must join at the engine's current
   window. A worker that replays an earlier one runs members to a stale
   target and lets the barrier count that pass as the window's own. *)
let test_run_after_shutdown () =
  let synth mode ~restart =
    fst
      (run_synth ~restart ~mode ~adaptive:false ~lookahead:4 ~n:4 ~domains:2
         ~total:400 [ 100; 100; 100 ])
  in
  let reference = synth Par_sim.Seq ~restart:false in
  for _ = 1 to 50 do
    Alcotest.(check string) "Seq schedule after each respawn" reference
      (synth Par_sim.Par ~restart:true)
  done

let () =
  Alcotest.run "par"
    [
      ( "par_sim",
        [
          Alcotest.test_case "merge order" `Quick test_merge_order;
          Alcotest.test_case "lookahead violation raises" `Quick
            test_lookahead_violation_raises;
          Alcotest.test_case "single partition" `Quick test_single_partition;
          Alcotest.test_case "worker member's exception reaches the caller"
            `Quick test_worker_member_raises;
          Alcotest.test_case "runs again after shutdown" `Quick
            test_run_after_shutdown;
          QCheck_alcotest.to_alcotest prop_delivery_canonical;
          QCheck_alcotest.to_alcotest prop_window_bounds;
        ] );
      ( "rack",
        [
          Alcotest.test_case "Par == Seq (E12-small shape)" `Quick
            test_rack_par_matches_seq;
          Alcotest.test_case "fewer domains than members == Seq" `Quick
            test_rack_fewer_domains_matches;
        ] );
      ( "domains",
        [
          Alcotest.test_case "clamped and reported" `Quick
            test_domains_clamped_and_reported;
        ] );
    ]
