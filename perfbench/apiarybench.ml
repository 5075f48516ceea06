(* The simulator benchmark: runs one named workload for a host-time
   budget as repeated rounds of the same seeded simulation, checks every
   round's outputs, and prints the metrics as one JSON line, each metric
   by name with its value. run.py attaches the units BENCHMARK.json
   gives them.

   apiarybench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 reports the end-to-end metrics; --trace 1 turns on the
   benchmark's span recorder and the engine's APIARY_PROF ticker
   profile and reports the per-layer metrics instead. *)

module Par_sim = Apiary_engine.Par_sim
module Stats = Apiary_engine.Stats

type workload = {
  name : string;
  engine : string;
  round : seed:int -> Round.t;
  (* Same inputs on the reference engine; its digest must match. *)
  reference : (seed:int -> Round.t) option;
}

let rack variant mode domains ~seed = Rack_wl.round ~variant ~mode ~domains ~seed

let workloads =
  [
    {
      name = "noc-saturate";
      engine = "Sim (monolithic)";
      round = Noc_wl.round;
      reference = None;
    };
    {
      name = "rack-kv";
      engine = "Par_sim Seq";
      round = rack Rack_wl.Kv_only Par_sim.Seq 1;
      reference = None;
    };
    {
      name = "rack-ops";
      engine = "Par_sim Seq";
      round = rack Rack_wl.Ops Par_sim.Seq 1;
      reference = None;
    };
    {
      name = "rack-kv-par";
      engine = "Par_sim Par, 2 domains";
      round = rack Rack_wl.Kv_only Par_sim.Par 2;
      reference = Some (rack Rack_wl.Kv_only Par_sim.Seq 1);
    };
  ]

let min_rounds = 3
let max_rounds = 200

let usage () =
  prerr_endline
    "usage: apiarybench --workload {noc-saturate|rack-kv|rack-ops|rack-kv-par} \
     --seed N --seconds S --trace 0|1 [--spans-out PATH]";
  exit 2

let nproc () =
  try
    let ic = Unix.open_process_in "nproc" in
    let n = input_line ic in
    ignore (Unix.close_process_in ic);
    n
  with _ -> string_of_int (Domain.recommended_domain_count ())

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let spans_out = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--spans-out" :: v :: r -> spans_out := v; parse r
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  let traced = !trace = 1 in
  (* The engine reads APIARY_PROF once, at its first ticker
     registration; set it before any simulator exists. *)
  if traced then Unix.putenv "APIARY_PROF" "1";
  Tracer.on := traced;
  Printf.printf "context: workload=%s seed=%d nproc=%s ocaml=%s engine=%s trace=%d\n%!"
    wl.name !seed (nproc ()) Sys.ocaml_version wl.engine !trace;
  let t_start = Unix.gettimeofday () in
  let settle () =
    (* Return the previous round's heap (four boards' DRAM), so rounds
       start from the same state and the peak is one round's. OCaml 5.1
       frees a dead large block only after a later major cycle has swept
       it, so one collection is not enough. *)
    for _ = 1 to 3 do
      Gc.full_major ()
    done
  in
  let one f =
    settle ();
    f ~seed:!seed
  in
  let rounds = ref [] and peak_heap_mb = ref 0.0 in
  while
    List.length !rounds < min_rounds
    || (Unix.gettimeofday () -. t_start < !seconds && List.length !rounds < max_rounds)
  do
    Tracer.reset ();
    settle ();
    let c0 = Round.calibrate () in
    let r = one wl.round in
    (* The process's top heap after its first round is one round's
       peak; later rounds can only add GC slack. *)
    if !rounds = [] then peak_heap_mb := Round.mb (Gc.quick_stat ()).Gc.top_heap_words;
    settle ();
    let calib = (c0 +. Round.calibrate ()) /. 2.0 in
    Printf.printf
      "round %d: setup %.4f s  run %.4f s  readout %.4f s  calibration %.4f s  cycles %d  digest %s\n%!"
      (List.length !rounds + 1) r.Round.setup_s r.run_s r.readout_s calib r.cycles r.digest;
    rounds := (r, Round.calib_ref_s /. calib) :: !rounds
  done;
  (* Untraced, so the spans left to write are the last timed round's. *)
  Tracer.on := false;
  let reference = Option.map one wl.reference in
  let scaled = List.rev !rounds in
  let rounds = List.map fst scaled in
  let first = List.hd rounds in
  let checks =
    List.concat_map (fun r -> r.Round.checks) rounds
    @ [ ("determinism.rounds_agree", List.for_all (fun r -> r.Round.digest = first.digest) rounds) ]
    @
    match reference with
    | None -> []
    | Some r ->
      Printf.printf "reference (Par_sim Seq) digest %s\n" r.Round.digest;
      [ ("engine.par_digest_eq_seq", r.Round.digest = first.digest) ]
  in
  let failed_checks = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (name, _) -> Printf.printf "CHECK FAILED: %s\n" name) failed_checks;
  let correct = failed_checks = [] in
  Printf.printf "checks: %d run, %d failed\n" (List.length checks) (List.length failed_checks);
  Printf.printf "engine: %s, domains_used=%d\n" wl.engine first.domains;
  Printf.printf "digest %s seed=%d: %s\n" wl.name !seed first.digest;
  let attempted = List.fold_left (fun a r -> a + r.Round.attempted) 0 rounds in
  (* A failed check fails the run: all of its ops count as failed. *)
  let failed = if correct then 0 else attempted in
  let med f = Round.median (List.map f rounds) in
  (* End-to-end host times: the median over rounds of each round's time
     scaled by the host-speed calibration taken around it (see
     [Round.calibrate]). *)
  let host f = Round.median (List.map (fun (r, k) -> f r *. k) scaled) in
  let rate run_s = float_of_int first.cycles /. run_s in
  let cycles_per_s = rate (host (fun r -> r.Round.run_s)) in
  let calibration_s = Round.calib_ref_s /. Round.median (List.map snd scaled) in
  (* Uncalibrated: the fastest round's rate, since contention on the
     host only ever slows a round down. *)
  let raw_cycles_per_s =
    rate (List.fold_left (fun a r -> Float.min a r.Round.run_s) infinity rounds)
  in
  let lat = first.latency in
  Printf.printf
    "host: calibration %.4f s median (reference %.3f s), unscaled run-phase rate %.6g cycles/s median, %.6g fastest round\n"
    calibration_s Round.calib_ref_s
    (rate (med (fun r -> r.Round.run_s)))
    raw_cycles_per_s;
  let metrics =
    if not traced then
      [
        ("sim_cycles_per_s", cycles_per_s);
        ("wall_s", host (fun r -> r.Round.setup_s +. r.run_s +. r.readout_s));
        ("setup_s", host (fun r -> r.Round.setup_s));
        ("alloc_words_per_cycle", med (fun r -> r.Round.run_alloc_words /. float_of_int r.cycles));
        ("peak_heap_mb", !peak_heap_mb);
        ( "sim_ops_per_kcycle",
          1000.0 *. float_of_int first.completed /. float_of_int first.load_cycles );
        ("sim_latency_p50_cycles", float_of_int (Stats.Histogram.percentile lat 50.0));
        ("sim_latency_p99_cycles", float_of_int (Stats.Histogram.percentile lat 99.0));
        ("ok_op_share", float_of_int first.completed /. float_of_int (max 1 first.attempted));
        (* Per-layer: run.py takes it from the untraced half of a traced
           run, where APIARY_PROF does not slow the tickers. *)
        ("host.raw_cycles_per_s", raw_cycles_per_s);
      ]
    else
      (* Each layer metric a round reports, as a median over the rounds;
         run.py reports 0 for the layers this workload does not run. *)
      List.map (fun (n, _) -> (n, med (fun r -> List.assoc n r.Round.layer))) first.layer
      @ [
          ("engine.domains_used", float_of_int first.domains);
          ("sim.latency_samples", float_of_int (Stats.Histogram.count lat));
          ("trace.traced_cycles_per_s", cycles_per_s);
          ("host.calibration_ms", 1000.0 *. calibration_s);
        ]
  in
  Printf.printf "latency samples: %d\n" (Stats.Histogram.count lat);
  if traced && !spans_out <> "" then Tracer.write_chrome ~path:!spans_out ~cap:50_000;
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i (name, v) -> Printf.bprintf b "%s%S: %.17g" (if i > 0 then ", " else "") name v)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)
