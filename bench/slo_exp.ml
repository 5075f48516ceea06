(* E15 — what does watching cost? The observability ladder measured on
   one fixed workload: a closed-loop KV client against a single-board
   kernel, run four times with progressively more telemetry enabled:

     off              no spans, no series, no SLO accounting
     spans            span recorder on, every event kept (head_mod 1)
     spans sampled    corr-keyed head sampling (1/8) + tail keep rules
     sampled+series+slo  sampling plus a windowed latency series and a
                      per-tenant SLO object fed from every completion

   The simulated run must be byte-identical across rungs — spans,
   series and SLO accounting live outside the simulator, so ops (and
   every sim-derived number) cannot move. What moves is host-side cost:
   span-event allocation and windowed accounting. Wall time is printed
   only with --perf (it is machine-dependent; default output stays
   byte-stable). APIARY_SMALL=1 shrinks the run for CI. *)

module Sim = Apiary_engine.Sim
module Shell = Apiary_core.Shell
module Kernel = Apiary_core.Kernel
module Kv = Apiary_accel.Kv
module Span = Apiary_obs.Span
module Series = Apiary_obs.Series
module Slo = Apiary_obs.Slo
open Bench_util

let bytes_of n = Bytes.make n 'x'

let mk_kernel () =
  let sim = Sim.create () in
  let cfg = { Kernel.default_config with Kernel.dram_bytes = 4 * 1024 * 1024 } in
  (sim, Kernel.create sim cfg)

(* One rung: the fixed KV workload with a per-completion latency hook.
   Returns (ops, wall_ms). *)
let run_workload ~duration ~on_done =
  let sim, k = mk_kernel () in
  Kernel.install k ~tile:5 (fst (Kv.behavior ()));
  let ops = ref 0 in
  Kernel.install k ~tile:1
    (Shell.behavior "driver" ~on_boot:(fun sh ->
         Sim.after (Shell.sim sh) 2_000 (fun () ->
             Shell.connect sh ~service:"kv" (fun r ->
                 match r with
                 | Error _ -> ()
                 | Ok conn ->
                   let rec go n =
                     let key = Printf.sprintf "k%03d" (n mod 167) in
                     let req =
                       if n land 1 = 0 then Kv.Proto.Put (key, bytes_of 64)
                       else Kv.Proto.Get key
                     in
                     let issued = Sim.now (Shell.sim sh) in
                     Shell.request sh conn ~opcode:Kv.Proto.opcode
                       (Kv.Proto.encode_req req) (fun _ ->
                         incr ops;
                         on_done ~now:(Sim.now (Shell.sim sh))
                           ~latency:(Sim.now (Shell.sim sh) - issued);
                         go (n + 1))
                   in
                   go 0))));
  let t0 = Unix.gettimeofday () in
  Sim.run_for sim duration;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  (!ops, wall_ms)

type rung = {
  name : string;
  spans : bool;
  head_mod : int;  (* 1 = keep everything *)
  accounted : bool;  (* feed Series + Slo from completions *)
}

let rungs =
  [
    { name = "off"; spans = false; head_mod = 1; accounted = false };
    { name = "spans"; spans = true; head_mod = 1; accounted = false };
    { name = "spans sampled"; spans = true; head_mod = 8; accounted = false };
    { name = "sampled+series+slo";
      spans = true; head_mod = 8; accounted = true };
  ]

let e15 () =
  header "E15" "the observability ladder: span, sampling and SLO overhead";
  let duration = if small () then 60_000 else 240_000 in
  let window = 5_000 in
  Printf.printf
    "single-board KV closed loop, %s cycles; overhead rungs run the\n\
     identical simulation with more telemetry enabled each time\n"
    (commas duration);
  let results =
    List.map
      (fun r ->
        Span.reset ();
        Span.set_enabled r.spans;
        Span.set_sampling ~head_mod:r.head_mod ~slow_cycles:20_000 ();
        let series = Series.create ~window () in
        let slo =
          Slo.create
            (Slo.default_objective ~window ~min_samples:5 ~tenant:"kv"
               ~latency_cycles:2_000 ())
        in
        let on_done ~now ~latency =
          if r.accounted then begin
            Series.observe series ~now "kv.latency" latency;
            Slo.observe slo ~now ~good:(latency <= 2_000)
          end
        in
        let ops, wall_ms = run_workload ~duration ~on_done in
        if r.accounted then begin
          Series.close_upto series duration;
          Slo.check slo ~now:duration
        end;
        let kept = Span.count () and away = Span.sampled () in
        Span.set_enabled false;
        Span.set_sampling ();
        Span.reset ();
        (r, ops, kept, away, wall_ms, series, slo))
      rungs
  in
  table
    [ "telemetry"; "ops"; "spans kept"; "sampled away"; "wall ms" ]
    (List.map
       (fun (r, ops, kept, away, wall_ms, _, _) ->
         [ r.name; commas ops; commas kept; commas away;
           (if !perf_enabled then f1 wall_ms else "-") ])
       results);
  (match results with
  | (_, ops0, _, _, _, _, _) :: rest ->
    let same = List.for_all (fun (_, ops, _, _, _, _, _) -> ops = ops0) rest in
    Printf.printf
      "ops identical across rungs: %s (telemetry never perturbs the sim)\n"
      (if same then "yes" else "NO — BUG")
  | [] -> ());
  (match List.rev results with
  | (_, _, _, _, _, series, slo) :: _ ->
    let closed = Series.closed series "kv.latency" in
    let last_p99 =
      match List.rev (Series.rollups series "kv.latency") with
      | r :: _ -> r.Series.r_p99
      | [] -> 0
    in
    Printf.printf
      "windowed series: %d windows x %s cycles, last-window p99 %s cycles; \
       slo attainment %.1f%% (%d alerts)\n"
      closed (commas window) (commas last_p99)
      (Slo.attainment_pct slo)
      (List.length (Slo.alerts slo))
  | [] -> ())
