(* Shared helpers for the experiment harness: headers, table rendering,
   cycle/time conversions and common simulation setups. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Profile = Apiary_engine.Profile
module Stats = Apiary_engine.Stats
module Cluster = Apiary_cluster.Cluster

let cycle_ns = 4.0 (* 250 MHz fabric *)

let us_of_cycles c = float_of_int c *. cycle_ns /. 1000.0

let header id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let subhead s = Printf.printf "\n-- %s --\n" s

(* Render a table: column titles + rows of strings, auto-width. *)
let table cols rows =
  let all = cols :: rows in
  let ncols = List.length cols in
  let width i =
    List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      row;
    print_newline ()
  in
  print_row cols;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let i = string_of_int
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let commas n =
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun idx c ->
      if idx > 0 && (len - idx) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let p50 h = Stats.Histogram.percentile h 50.0
let p99 h = Stats.Histogram.percentile h 99.0

let throughput_per_sec ~count ~cycles =
  float_of_int count /. (float_of_int cycles *. cycle_ns *. 1e-9)

(* ------------------------------------------------------------------ *)
(* Domain-parallel sweeps.

   Each simulation instance is fully self-contained (per-sim RNGs, stats
   and trace buffers), so independent sweep points can run on separate
   domains. The function must not print — callers collect results and
   render tables on the main domain, which keeps output ordering
   deterministic and identical to the sequential run. *)

let domain_count () =
  match Sys.getenv_opt "APIARY_DOMAINS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 1)
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* APIARY_PAR selects the conservative parallel-in-time engine:
   [boards] partitions racks one-board-per-domain (lookahead = the
   uplink's 126 cycles). Anything else — or unset — runs the reference
   sequential engine. *)
let par_mode () =
  match Sys.getenv_opt "APIARY_PAR" with
  | Some "boards" -> `Boards
  | _ -> `Off

(* APIARY_DOMAINS caps a partitioned rack's domain fan-out below its
   member count; the engine's work stealing then keeps the smaller
   domain pool fed. Unset, every member gets its own domain. *)
let rack_domains ~members =
  match Sys.getenv_opt "APIARY_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> members)
  | None -> members

(* Build a rack, let [body] populate it (returning the result
   extractor), run for [duration], extract. The rack is partitioned one
   member per board plus the ToR, with the board uplink's 126 cycles as
   lookahead, and runs on Par_sim's canonical windowed schedule: Seq by
   default, spread over domains under APIARY_PAR=boards — byte-identical
   either way. *)
let with_rack ~boards ~clients ~duration body =
  let mode, domains =
    match par_mode () with
    | `Boards -> (Par_sim.Par, rack_domains ~members:(boards + 1))
    | `Off -> (Par_sim.Seq, 1)
  in
  let eng = Cluster.engine ~mode ~domains ~boards () in
  let sim = Par_sim.sim eng 0 in
  let cluster =
    Cluster.create ~engine:eng sim ~boards ~client_ports:(clients + 1)
  in
  let finish = body sim cluster in
  Par_sim.run_until eng duration;
  Par_sim.shutdown eng;
  finish ()

let parallel_map f items =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let k = min n (domain_count ()) in
    if k <= 1 then Array.to_list (Array.map f items)
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <- Some (f items.(i));
            go ()
          end
        in
        go ()
      in
      let domains = Array.init (k - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join domains;
      Array.to_list
        (Array.map
           (function Some r -> r | None -> failwith "parallel_map: missing result")
           results)
    end
  end

(* ------------------------------------------------------------------ *)
(* Perf self-measurement (--perf). *)

let perf_enabled = ref false

(* Telemetry capture (--obs): E12 attaches the span recorder and the
   metrics registry and writes Chrome-trace/metrics JSON next to
   BENCH_perf.json. *)
let obs_enabled = ref false

type perf_record = {
  pr_id : string;
  pr_wall_s : float;
  pr_cycles : int;
  pr_skipped : int;  (* cycles fast-forwarded through quiescence *)
  pr_active_ticks : int;  (* ticker invocations actually executed *)
  pr_skipped_ticks : int;  (* ticker invocations elided while parked *)
  pr_stall_s : float;  (* barrier stall (parallel engine only) *)
  pr_windows : int;  (* adaptive sync windows executed during the run *)
  pr_domains : int;  (* OS domains per Par window, mean over the run's
                        Par windows (rounded); 1 when none ran *)
  pr_alloc_words : float;  (* words allocated, all domains *)
}

let perf_records : perf_record list ref = ref []

(* Words allocated by every domain so far, as perfbench counts them:
   [Gc.quick_stat] folds in running and joined domains, and is exact to
   one minor heap. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Wall-clock an experiment and record simulated cycles advanced across
   all sims (including parallel domains) while it ran. *)
let timed id f () =
  if not !perf_enabled then f ()
  else begin
    let cycles0 = Sim.total_cycles () in
    let skipped0 = Sim.total_skipped () in
    let active_t0 = Sim.total_active_ticks () in
    let skipped_t0 = Sim.total_skipped_ticks () in
    let stall0 = Par_sim.total_barrier_stall_s () in
    let windows0 = Par_sim.total_windows () in
    let par0, dom0 = Par_sim.total_par_windows () in
    let alloc0 = alloc_words () in
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    let alloc = alloc_words () -. alloc0 in
    let par1, dom1 = Par_sim.total_par_windows () in
    let par = par1 - par0 in
    perf_records :=
      {
        pr_id = id;
        pr_wall_s = dt;
        pr_cycles = Sim.total_cycles () - cycles0;
        pr_skipped = Sim.total_skipped () - skipped0;
        pr_active_ticks = Sim.total_active_ticks () - active_t0;
        pr_skipped_ticks = Sim.total_skipped_ticks () - skipped_t0;
        pr_stall_s = Par_sim.total_barrier_stall_s () -. stall0;
        pr_windows = Par_sim.total_windows () - windows0;
        pr_domains = (if par = 0 then 1 else (dom1 - dom0 + (par / 2)) / par);
        pr_alloc_words = alloc;
      }
      :: !perf_records
  end

let write_perf_json path =
  let oc = open_out path in
  let records = List.rev !perf_records in
  (* Honest machine context for the run: how many cores the host
     actually offers (speedup claims are meaningless without it) and
     which parallel engine, if any, was selected. Each record then says
     how many domains its experiment actually ran on. perf_guard keys on
     per-experiment "id" lines and skips these. *)
  Printf.fprintf oc "{\n  \"host_cores\": %d,\n  \"par_mode\": \"%s\",\n"
    (Domain.recommended_domain_count ())
    (match par_mode () with `Boards -> "boards" | `Off -> "off");
  output_string oc "  \"experiments\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"id\": \"%s\", \"wall_s\": %.3f, \"sim_cycles\": %d, \"cycles_per_s\": %.0f, \"skipped_cycles\": %d, \"active_ticks\": %d, \"skipped_ticks\": %d, \"domains_used\": %d, \"alloc_words\": %.0f%s}%s\n"
        r.pr_id r.pr_wall_s r.pr_cycles
        (if r.pr_wall_s > 0.0 then float_of_int r.pr_cycles /. r.pr_wall_s
         else 0.0)
        r.pr_skipped r.pr_active_ticks r.pr_skipped_ticks r.pr_domains
        r.pr_alloc_words
        ((if r.pr_stall_s > 0.0 then
            Printf.sprintf ", \"barrier_stall_s\": %.3f" r.pr_stall_s
          else "")
        ^
        if r.pr_windows > 0 then Printf.sprintf ", \"windows\": %d" r.pr_windows
        else "")
        (if i = List.length records - 1 then "" else ","))
    records;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nperf: wrote %s\n" path

(* Hot-path profile (APIARY_PROF=1): cumulative wall time and invocation
   count per ticker name, aggregated across every simulator in the
   process. Read back through the metrics registry — the built-in
   [obs.prof] sampler publishes [prof.<ticker>.calls/.seconds] gauges —
   so --perf console output and --obs metrics dumps render the same
   pipeline's numbers. *)
let print_profile () =
  if Profile.enabled () then begin
    let module Registry = Apiary_obs.Registry in
    let gauge suffix name =
      Stats.Gauge.value
        (Registry.gauge (Printf.sprintf "prof.%s.%s" name suffix))
    in
    let rows =
      List.filter_map
        (fun (key, inst) ->
          match inst with
          | Registry.Gauge _ when
              String.length key > 13
              && String.sub key 0 5 = "prof."
              && String.sub key (String.length key - 8) 8 = ".seconds" ->
            Some (String.sub key 5 (String.length key - 13))
          | _ -> None)
        (Registry.snapshot ())
    in
    (* The registry snapshot is alphabetical; keep the profiler's own
       order (descending wall time) for the table. *)
    let rows =
      List.sort
        (fun a b -> compare (gauge "seconds" b) (gauge "seconds" a))
        rows
    in
    match rows with
    | [] -> ()
    | rows ->
      subhead "ticker profile (APIARY_PROF)";
      table
        [ "ticker"; "calls"; "skipped"; "seconds"; "ns/call" ]
        (List.map
           (fun name ->
             let calls = int_of_float (gauge "calls" name) in
             let skipped = int_of_float (gauge "skipped" name) in
             let seconds = gauge "seconds" name in
             [
               name;
               commas calls;
               commas skipped;
               Printf.sprintf "%.3f" seconds;
               f1 (seconds *. 1e9 /. float_of_int (max 1 calls));
             ])
           rows)
  end
