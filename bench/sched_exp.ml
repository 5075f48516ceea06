(* E14 — elastic multi-tenant scheduling: SLO attainment and provisioned
   capacity, elastic scheduler vs static placement, with and without
   migration; plus a board-kill drill through the watchdog alarm path.

   Three tenants share one rack under a diurnal + flash-crowd load
   trace:
     - "web"   small echo service, diurnal swing (steady base, a peak
               window in the middle third of the run);
     - "ml"    a heavy context whose logic-cell footprint only fits the
               big-part boards (the floorplan area constraint biting);
     - "burst" small service with a flash crowd (a sudden spike half way
               through, gone again a sixth of a run later).

   Variants:
     static-res   fixed placement at each tenant's reservation (the
                  per-app toolflow baseline: provision for the average)
     static-peak  fixed placement at each tenant's max replicas
                  (provision for the worst case)
     elastic      lib/sched autoscaling, migration disabled
     elastic+mig  lib/sched autoscaling + hot/cold board migration

   APIARY_SMALL=1 shrinks durations for CI smoke runs. The run is
   deterministic and engine-independent: under APIARY_PAR=boards output
   is byte-identical to the default Seq run (E14's scheduler state lives
   on the controller member; commands and telemetry ride the same
   staged protocols as frames). *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Accels = Apiary_accel.Accels
module Cluster = Apiary_cluster.Cluster
module Shard_client = Apiary_cluster.Shard_client
module Rack_health = Apiary_cluster.Rack_health
module Collector = Apiary_cluster.Collector
module Placer = Apiary_sched.Placer
module Sched = Apiary_sched.Sched
module Slo = Apiary_obs.Slo
module Floorplan = Apiary_resource.Floorplan
module Parts = Apiary_resource.Parts
module Area = Apiary_resource.Area
open Bench_util

let bytes_of n = Bytes.make n 'x'

(* ------------------------------------------------------------------ *)
(* The rack: big-part boards 0-1 (VU9P), small-part boards 2+. The
   per-slot logic-cell budgets come from the floorplan model, so the
   "ml" tenant (sized between the two budgets) can only land on the big
   boards. *)

let noc = { Area.vcs = 2; depth = 4; flit_bits = 32 }

let slot_cells_of_part part =
  match Floorplan.plan ~part ~tiles:16 ~noc ~cap_entries:16 with
  | Some p -> p.Floorplan.slot_logic_cells
  | None -> failwith "e14: OS exceeds part"

let big_slot = slot_cells_of_part Parts.vu9p
let small_slot = slot_cells_of_part Parts.xc7v585t
let slot_cells board = if board < 2 then big_slot else small_slot

(* ------------------------------------------------------------------ *)
(* Tenants. capacity_hint is ops per scheduler epoch (20k cycles) one
   replica sustains; slo_cycles the per-request latency bound. *)

let web_spec =
  {
    Placer.name = "web";
    cells = small_slot / 2;
    state_bytes = 4_096;
    bitstream_bytes = 16_384;
    reservation = 1;
    max_replicas = 3;
    slo_cycles = 5_000;
    capacity_hint = 66;  (* epoch / service time (300) *)
  }

let ml_spec =
  {
    Placer.name = "ml";
    cells = (big_slot + small_slot) / 2;  (* fits VU9P slots only *)
    state_bytes = 65_536;
    bitstream_bytes = 131_072;
    reservation = 1;
    max_replicas = 2;
    slo_cycles = 25_000;
    capacity_hint = 16;  (* epoch / service time (1200) *)
  }

let burst_spec =
  {
    Placer.name = "burst";
    cells = small_slot / 3;
    state_bytes = 2_048;
    bitstream_bytes = 8_192;
    reservation = 1;
    max_replicas = 2;
    slo_cycles = 5_000;
    capacity_hint = 66;
  }

let specs = [ web_spec; ml_spec; burst_spec ]

(* Service times chosen so closed-loop latency (≈ concurrency × cost on
   a saturated replica, tiles serve serially) crosses the SLO at peak
   concurrency on one replica but clears it on two. *)
let behavior_of (spec : Placer.tenant) () =
  let cost =
    match spec.Placer.name with "ml" -> 1_200 | _ -> 300
  in
  Accels.echo ~service:spec.Placer.name ~cost ()

(* ------------------------------------------------------------------ *)
(* Load trace: closed-loop clients per tenant, phased on the controller
   simulator. Ramp-down restarts after a quiet gap so the old loops
   drain instead of chaining on. *)

let ramp sim client ~at ~extra =
  Sim.after sim at (fun () -> Shard_client.start client ~concurrency:extra)

let ramp_down sim client ~at ~restart =
  Sim.after sim at (fun () ->
      Shard_client.stop client;
      Sim.after sim 6_000 (fun () ->
          Shard_client.start client ~concurrency:restart))

let drive_load sim ~duration ~web ~ml ~burst =
  (* base load *)
  ramp sim web ~at:3_000 ~extra:6;
  ramp sim ml ~at:3_100 ~extra:3;
  ramp sim burst ~at:3_200 ~extra:2;
  (* diurnal peak: web triples during the middle third, then falls to a
     night trough *)
  ramp sim web ~at:(duration / 3) ~extra:12;
  ramp_down sim web ~at:(2 * duration / 3) ~restart:2;
  (* flash crowd: burst spikes at half-run, gone a sixth later *)
  ramp sim burst ~at:(duration / 2) ~extra:16;
  ramp_down sim burst ~at:((duration / 2) + (duration / 6)) ~restart:1

let mk_client cluster (spec : Placer.tenant) =
  Shard_client.create cluster ~timeout:20_000 ~service:spec.Placer.name
    ~op:Accels.op_echo ~route:Shard_client.Round_robin
    ~gen:(fun _ -> ("", bytes_of 64))

(* ------------------------------------------------------------------ *)
(* One variant run. Returns per-tenant (ops, slo_ok, total, avg replica
   thousandths) plus scheduler totals and drill facts. *)

(* Plain extract of a tenant's Slo state. Holding the Slo.t itself
   would keep the whole variant's sim graph alive across the sweep (its
   alert subscribers close over the scheduler), quadrupling peak heap. *)
type slo_summary = {
  ss_alerts : int;
  ss_first_alert : int option;
  ss_first_below : int option;
  ss_budget_pct : float;
  ss_attain_pct : float;
}

let summarize_slo slo =
  {
    ss_alerts = List.length (Slo.alerts slo);
    ss_first_alert = Slo.first_alert_cycle slo;
    ss_first_below = Slo.first_below_target slo;
    ss_budget_pct = Slo.budget_remaining_pct slo;
    ss_attain_pct = Slo.attainment_pct slo;
  }

type run_result = {
  per_tenant : (string * int * int * int * int) list;
      (* name, ops, within-SLO, samples, avg replicas x1000 *)
  totals : Sched.totals option;
  failovers : int;
  client_errors : int;
  detections : (int * int) list;  (* rack watchdog (cycle, board) *)
  decisions_json : string option;
  slo_json : string option;  (* Sched.slo_report_json (elastic only) *)
  slos : (string * slo_summary) list;  (* per-tenant extracts (elastic only) *)
  victim : int;  (* board killed by the drill, -1 when none *)
}

type variant = Static of [ `Reserved | `Peak ] | Elastic of { migration : bool }

let variant_name = function
  | Static `Reserved -> "static-res"
  | Static `Peak -> "static-peak"
  | Elastic { migration = false } -> "elastic"
  | Elastic { migration = true } -> "elastic+mig"

let run_variant ~variant ~boards ~duration ~kill =
  with_rack ~boards ~clients:5 ~duration (fun sim cluster ->
      let caps =
        List.init boards (fun b ->
            { Placer.board = b; tiles = 4; slot_cells = slot_cells b })
      in
      let sched, collector, static_placement =
        match variant with
        | Static which ->
          let targets =
            List.map
              (fun (s : Placer.tenant) ->
                ( s,
                  match which with
                  | `Reserved -> s.Placer.reservation
                  | `Peak -> s.Placer.max_replicas ))
              specs
          in
          let placement, short =
            Placer.place ~caps ~targets ~current:[] ~load:(fun _ -> 0)
          in
          assert (short = []);
          List.iter
            (fun (name, bs) ->
              let spec = List.find (fun s -> s.Placer.name = name) specs in
              List.iter
                (fun b ->
                  ignore
                    (Cluster.install cluster ~board:b ~service:name
                       (behavior_of spec ())))
                bs)
            placement;
          (None, None, placement)
        | Elastic { migration } ->
          let cfg =
            {
              (* A saturated board at these service times moves ~40
                 msgs/load report, an idle one under 12 (calibrated). *)
              Sched.hot_load = (if migration then 30 else max_int / 2);
              cold_load = 12;
              (* Fine-grained SLO windows: a flash crowd exhausts a
                 low-rate tenant's error budget within a couple of
                 thousand cycles, so burn rates must be observable on
                 that scale for the page to lead the breach. *)
              slo_window = 1_000;
              slo_min_samples = 4;
            }
          in
          let collector = Collector.create cluster in
          let sched = Sched.create ~config:cfg cluster ~collector ~slot_cells in
          List.iter
            (fun spec ->
              Sched.add_tenant sched ~spec ~behavior:(behavior_of spec))
            specs;
          (Some sched, Some collector, [])
      in
      let web = mk_client cluster web_spec in
      let ml = mk_client cluster ml_spec in
      let burst = mk_client cluster burst_spec in
      let clients =
        [ (web_spec, web); (ml_spec, ml); (burst_spec, burst) ]
      in
      (match sched with
      | Some sched ->
        List.iter
          (fun ((spec : Placer.tenant), c) ->
            Sched.watch sched ~tenant:spec.Placer.name c)
          clients;
        Sched.start sched
      | None ->
        (* Static placement: point each client's ring at its tenant's
           boards once, before traffic starts. *)
        List.iter
          (fun ((spec : Placer.tenant), c) ->
            Shard_client.sync_boards c
              (Option.value ~default:[]
                 (List.assoc_opt spec.Placer.name static_placement)))
          clients);
      (* The rack watchdog: failure detection for the drill rides the
         heartbeat/alarm path, not client timeouts. It hears the boards
         through the collector — the scheduler's, when there is one. *)
      let collector =
        match collector with Some c -> c | None -> Collector.create cluster
      in
      let health = Rack_health.create cluster in
      drive_load sim ~duration ~web ~ml ~burst;
      let victim = ref (-1) in
      (match kill with
      | None -> ()
      | Some at ->
        (* Kill a board serving the web tenant (deterministic: the
           placement at [at] is a pure function of the run). *)
        Sim.after sim at (fun () ->
            let b =
              match sched with
              | Some sched -> (
                match Sched.placement sched ~tenant:"web" with
                | b :: _ -> b
                | [] -> 0)
              | None -> 0
            in
            victim := b;
            Cluster.kill cluster ~board:b));
      fun () ->
        List.iter (fun (_, c) -> Shard_client.stop c) clients;
        Collector.detach collector;
        let now = duration in
        let per_tenant =
          List.map
            (fun ((spec : Placer.tenant), c) ->
              let lat = Shard_client.latency c in
              let n = Stats.Histogram.count lat in
              let ok = Stats.Histogram.count_le lat spec.Placer.slo_cycles in
              let avg_x1000 =
                match sched with
                | Some sched ->
                  Sched.replica_cycles sched ~tenant:spec.Placer.name ~now
                  * 1000 / max 1 now
                | None ->
                  1000
                  * List.length
                      (Option.value ~default:[]
                         (List.assoc_opt spec.Placer.name static_placement))
              in
              ( spec.Placer.name,
                Shard_client.completed c,
                ok,
                n,
                avg_x1000 ))
            clients
        in
        {
          per_tenant;
          totals = Option.map Sched.totals sched;
          failovers =
            List.fold_left (fun a (_, c) -> a + Shard_client.failovers c) 0
              clients;
          client_errors =
            List.fold_left (fun a (_, c) -> a + Shard_client.errors c) 0
              clients;
          detections = Rack_health.detections health;
          decisions_json = Option.map Sched.decisions_json sched;
          slo_json = Option.map Sched.slo_report_json sched;
          slos =
            (match sched with
            | None -> []
            | Some sched ->
              List.map
                (fun ((spec : Placer.tenant), _) ->
                  ( spec.Placer.name,
                    summarize_slo (Sched.slo sched ~tenant:spec.Placer.name)
                  ))
                clients);
          victim = !victim;
        })

(* ------------------------------------------------------------------ *)

let attainment_pct ~ok ~n = if n = 0 then 100.0 else 100.0 *. float_of_int ok /. float_of_int n

let avg_replicas_total r =
  List.fold_left (fun a (_, _, _, _, x) -> a + x) 0 r.per_tenant

let overall r =
  let ok = List.fold_left (fun a (_, _, ok, _, _) -> a + ok) 0 r.per_tenant in
  let n = List.fold_left (fun a (_, _, _, n, _) -> a + n) 0 r.per_tenant in
  attainment_pct ~ok ~n

let e14 () =
  header "E14"
    "elastic multi-tenant scheduling: SLO attainment vs provisioned capacity";
  let sm = small () in
  let boards = if sm then 4 else 6 in
  let duration = if sm then 400_000 else 800_000 in
  Printf.printf
    "rack: %d boards (0-1 %s, rest %s); slot budgets %s / %s cells\n\
     tenants: web (diurnal), ml (big-part only), burst (flash crowd)\n"
    boards Parts.vu9p.Parts.name Parts.xc7v585t.Parts.name (commas big_slot)
    (commas small_slot);

  subhead "E14a: SLO attainment and provisioned capacity per policy";
  let variants =
    [
      Static `Reserved;
      Static `Peak;
      Elastic { migration = false };
      Elastic { migration = true };
    ]
  in
  let results =
    List.map
      (fun v -> (v, run_variant ~variant:v ~boards ~duration ~kill:None))
      variants
  in
  table
    ([ "policy"; "slo%" ]
    @ List.concat_map
        (fun (s : Placer.tenant) -> [ s.Placer.name ^ " slo%"; "repl" ])
        specs
    @ [ "avg repl"; "ops"; "mig"; "up/down"; "defer" ])
    (List.map
       (fun (v, r) ->
         let per =
           List.concat_map
             (fun (_, _, ok, n, avg) ->
               [ f1 (attainment_pct ~ok ~n); f2 (float_of_int avg /. 1000.) ])
             r.per_tenant
         in
         let ops =
           List.fold_left (fun a (_, o, _, _, _) -> a + o) 0 r.per_tenant
         in
         let mig, ud, dfr =
           match r.totals with
           | None -> ("-", "-", "-")
           | Some t ->
             ( i t.Sched.migrations,
               Printf.sprintf "%d/%d" t.Sched.scale_ups t.Sched.scale_downs,
               i t.Sched.deferred )
         in
         [ variant_name v; f1 (overall r) ]
         @ per
         @ [
             f2 (float_of_int (avg_replicas_total r) /. 1000.);
             commas ops;
             mig;
             ud;
             dfr;
           ])
       results);
  Printf.printf
    "(static-res underprovisions the peaks, static-peak pays for %d\n\
    \ replicas all run long; the elastic policies track demand — and\n\
    \ migration additionally drains congested boards)\n"
    (List.fold_left (fun a (s : Placer.tenant) -> a + s.Placer.max_replicas) 0 specs);

  (* The migrating run's decision log is the artifact CI validates. *)
  (match List.assoc (Elastic { migration = true }) results with
  | { decisions_json = Some json; _ } ->
    let oc = open_out "BENCH_e14_decisions.json" in
    output_string oc json;
    close_out oc;
    Printf.printf "decision log -> BENCH_e14_decisions.json\n"
  | _ -> ());

  subhead "E14b: board-kill drill (watchdog alarm path, elastic+mig)";
  let kill_at = duration / 2 in
  let r =
    run_variant
      ~variant:(Elastic { migration = true })
      ~boards ~duration ~kill:(Some kill_at)
  in
  let detect =
    match List.find_opt (fun (_, b) -> b = r.victim) r.detections with
    | Some (cyc, _) -> cyc
    | None -> -1
  in
  let replaced, deferred =
    match r.totals with
    | Some t -> (t.Sched.replaced, t.Sched.deferred)
    | None -> (0, 0)
  in
  table
    [ "event"; "value" ]
    [
      [ "board killed (cycle)";
        Printf.sprintf "%s (board %d, serving web)" (commas kill_at) r.victim ];
      [ "watchdog detection (cycle)";
        (if detect >= 0 then commas detect else "none") ];
      [ "detection lag (cycles)";
        (if detect >= 0 then commas (detect - kill_at) else "-") ];
      [ "replicas re-placed on survivors"; i replaced ];
      [ "placements deferred (no capacity)"; i deferred ];
      [ "requests reissued (failovers)"; i r.failovers ];
      [ "transient errors (all retried)"; i r.client_errors ];
      [ "overall SLO attainment"; f1 (overall r) ^ "%" ];
    ];
  Printf.printf
    "(the watchdog's report_down reaches the scheduler and the shard\n\
    \ clients in the same announcement: displaced tenants are re-placed\n\
    \ and in-flight work reissued without waiting out request timeouts)\n";

  subhead "E14c: burn-rate alerting (lib/obs/slo, elastic+mig)";
  let em = List.assoc (Elastic { migration = true }) results in
  (match em.slo_json with
  | Some json ->
    let oc = open_out "BENCH_e14_slo.json" in
    output_string oc json;
    close_out oc
  | None -> ());
  let opt_cyc = function None -> "-" | Some c -> commas c in
  table
    [ "tenant"; "alerts"; "first alert"; "first below target"; "budget left";
      "attain%" ]
    (List.map
       (fun (name, s) ->
         [
           name;
           i s.ss_alerts;
           opt_cyc s.ss_first_alert;
           opt_cyc s.ss_first_below;
           f1 s.ss_budget_pct ^ "%";
           f1 s.ss_attain_pct;
         ])
       em.slos);
  (* The headline property: during the flash crowd the burst tenant's
     fast-burn page fires before whole-run attainment actually crosses
     below target — the alert leads the breach instead of reporting it. *)
  (match List.assoc_opt "burst" em.slos with
  | Some s -> (
    match (s.ss_first_alert, s.ss_first_below) with
    | Some alert, Some below ->
      Printf.printf
        "burst: burn alert at %s, attainment crossed below target at %s -> \
         alert led the breach by %s cycles\n"
        (commas alert) (commas below)
        (commas (below - alert))
    | Some alert, None ->
      Printf.printf
        "burst: burn alert at %s; whole-run attainment never fell below \
         target (autoscaler absorbed the crowd)\n"
        (commas alert)
    | None, _ -> Printf.printf "burst: no burn alert fired\n")
  | None -> ());
  Printf.printf "slo report -> BENCH_e14_slo.json\n";
