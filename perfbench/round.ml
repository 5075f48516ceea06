(* One round of a workload: a complete seeded simulation, split into
   the three host-timed phases a user of the simulator waits for. *)

module Stats = Apiary_engine.Stats
module Profile = Apiary_engine.Profile

type t = {
  setup_s : float;  (* host s before the first simulated cycle *)
  run_s : float;  (* host s advancing the engine, worker join included *)
  readout_s : float;  (* host s reading results and exporting *)
  cycles : int;  (* simulated cycles of the run phase *)
  run_alloc_words : float;  (* words allocated in the run phase, all domains *)
  attempted : int;  (* simulated ops issued (requests or packets) *)
  completed : int;  (* simulated ops that succeeded *)
  load_cycles : int;  (* cycles during which load was offered *)
  latency : Stats.Histogram.t;  (* op latency, simulated cycles *)
  digest : string;  (* hash of every simulated output *)
  checks : (string * bool) list;
  layer : (string * float) list;  (* per-layer metrics (traced rounds) *)
  domains : int;  (* OS domains the engine actually ran *)
}

(* Words allocated by every domain so far. [Gc.quick_stat] folds in
   the sampled counters of running domains and the final counters of
   joined ones; [Gc.counters] would see the calling domain only. The
   calling domain's minor words advance at each minor collection, so a
   phase's count is exact to one minor heap (256k words). *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* Host-speed calibration: a fixed piece of plain-OCaml work (hashing
   and short-lived allocation, like the simulator's), timed around every
   round. The shared host runs in slow periods: round times 1.3-2x
   longer, lasting from seconds to minutes. This loop slows with them
   (correlation 0.7 with rack-kv round times over 100 s; a cache-missing
   pointer walk tracked them at 0.4), so host times scaled by
   [calib_ref_s / calibrate ()] compare across periods. [calib_ref_s]
   is the loop's time on the 2-core development host when idle.

   The loop runs under fixed GC parameters (the OCaml 5.1 defaults),
   and the workload's own parameters are restored after it, so a change
   that retunes the GC speeds up the workload but not the yardstick. *)
let calib_ref_s = 0.035

let calib_gc () =
  {
    (Gc.get ()) with
    Gc.minor_heap_size = 262_144;
    space_overhead = 120;
    custom_major_ratio = 44;
    custom_minor_ratio = 100;
    custom_minor_max_size = 70_000;
  }

let calibrate () =
  let own = Gc.get () in
  let fixed = calib_gc () in
  if fixed <> own then Gc.set fixed;
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 300_000 do
    Hashtbl.replace h (i land 8191) (i, [ i ]);
    match Hashtbl.find_opt h ((i * 7919) land 8191) with
    | Some (v, _) -> acc := !acc + v
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  let t = Unix.gettimeofday () -. t0 in
  if fixed <> own then Gc.set own;
  t

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* GC collection counts, for deltas over a round. *)
type gc_mark = { minor : int; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections }

(* Ticker self-time per [APIARY_PROF] row name ([0.] when profiling is
   off or the row does not exist). *)
let prof_seconds name =
  List.fold_left
    (fun acc (n, _, _, s) -> if n = name then acc +. s else acc)
    0.0 (Profile.snapshot ())

let prof_total () =
  List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 (Profile.snapshot ())

(* Canonical text of a histogram, for digests. *)
let hist_text h =
  let b = Buffer.create 256 in
  Printf.bprintf b "n=%d sum=%d" (Stats.Histogram.count h) (Stats.Histogram.sum h);
  List.iter
    (fun (k, c) -> Printf.bprintf b " %d:%d" k c)
    (Stats.Histogram.nonzero_buckets h);
  Buffer.contents b

let digest_of lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let k = int_of_float (Float.round (q *. float_of_int (Array.length a - 1))) in
    a.(k)

let median xs = percentile 0.5 xs

(* Per-layer metrics every traced round derives the same way, from the
   benchmark's spans, the profiler rows and the GC. With several
   domains the ticker self-time is summed over all of them, so
   [engine.untracked_s] subtracts its per-domain share from the wall
   time of the run. *)
let common_layer ~run_s ~domains ~cycles ~member_cycles ~active_ticks ~skipped_ticks
    ~skipped_cycles ~setup_heap_words ~gc0 ~gc1 =
  let slices = Tracer.durations ~layer:"engine" ~name:"run_slice" in
  let ticks = active_ticks + skipped_ticks in
  [
    ("engine.run_slice_ms_p50", 1000.0 *. median slices);
    ("engine.run_slice_ms_p95", 1000.0 *. percentile 0.95 slices);
    ( "engine.host_ns_per_active_tick",
      1e9 *. run_s /. float_of_int (max 1 active_ticks) );
    ( "engine.active_ticks_per_kcycle",
      1000.0 *. float_of_int active_ticks /. float_of_int (max 1 cycles) );
    ("engine.tick_skip_frac", float_of_int skipped_ticks /. float_of_int (max 1 ticks));
    ( "engine.cycles_skipped_frac",
      float_of_int skipped_cycles /. float_of_int (max 1 member_cycles) );
    ("engine.untracked_s", run_s -. (prof_total () /. float_of_int (max 1 domains)));
    ("engine.setup_heap_mb", mb setup_heap_words);
    ("engine.gc_minor_collections", float_of_int (gc1.minor - gc0.minor));
    ("engine.gc_major_collections", float_of_int (gc1.major - gc0.major));
    ("engine.span_self_s", Tracer.self_time "engine");
    ("noc.router_s", prof_seconds "noc.router");
    ("noc.nic_s", prof_seconds "noc.nic");
    ("core.monitor_s", prof_seconds "monitor");
    ("bench.callback_s", Tracer.self_time "bench");
  ]
