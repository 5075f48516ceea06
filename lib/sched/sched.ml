(* The elastic scheduler's stateful half: controller-resident decision
   loop over Placer's pure arithmetic.

   Partition discipline (what keeps Seq and Par byte-identical): every
   piece of scheduler state here is member-0 (controller) state, touched
   only from controller events — the epoch timer, load-report/alarm
   records delivered by the rack Collector, and Cluster's board up/down
   announcements. Board fabrics are touched only through thunks staged
   with Cluster.post_to_board (>= one uplink of latency) and through
   board-side periodic events armed before the run starts. Completion
   times of installs and migrations are *predicted* controller-side
   from deterministic cost constants rather than signalled back, so no
   board->controller post is ever needed. *)

module Sim = Apiary_engine.Sim
module Stats = Apiary_engine.Stats
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Perf = Apiary_obs.Perf
module Slo = Apiary_obs.Slo
module Flight = Apiary_obs.Flight
module Kernel = Apiary_core.Kernel
module Shell = Apiary_core.Shell
module Health = Apiary_core.Health
module Statsvc = Apiary_core.Statsvc
module Agent = Apiary_obs.Agent
module Wire = Apiary_obs.Agent.Wire
module Cluster = Apiary_cluster.Cluster
module Node = Apiary_cluster.Node
module Collector = Apiary_cluster.Collector
module Directory = Apiary_cluster.Directory
module Shard_client = Apiary_cluster.Shard_client

type config = {
  report_period : int;
  epoch : int;
  up_epochs : int;
  down_epochs : int;
  hot_load : int;
  cold_load : int;
  cooldown : int;
  drain_delay : int;
  slo_window : int;
  slo_min_samples : int;
}

let default_config =
  {
    report_period = 1_000;
    epoch = 20_000;
    up_epochs = 2;
    down_epochs = 3;
    hot_load = 2_000;
    cold_load = 800;
    cooldown = 60_000;
    drain_delay = 30_000;
    slo_window = 5_000;
    slo_min_samples = 20;
  }

(* Fixed policy: a 99% SLO attainment target, not judged in an epoch
   with fewer than 10 completions; per-replica demand above 90% of the
   capacity hint is saturation and below 25% idle; 128 cycles of slack on
   modelled install/PR completion times; one migration per epoch. *)
let slo_target_pct = 99
let min_samples = 10
let hi_util_pct = 90
let lo_util_pct = 25
let margin = 128
let max_migrations_per_epoch = 1

type decision = {
  d_cycle : int;
  d_kind : string;
  d_tenant : string;
  d_board : int;
  d_src : int;
  d_note : string;
}

type totals = {
  placements : int;
  migrations : int;
  scale_ups : int;
  scale_downs : int;
  deferred : int;
  replaced : int;
  slo_violations : int;
}

type rstate = Pending | Active | Draining

type replica = {
  rep_tenant : string;
  rep_board : int;
  rep_tile : int;
  mutable rep_state : rstate;
}

type tenant = {
  spec : Placer.tenant;
  behavior : unit -> Shell.behavior;
  mutable client : Shard_client.t option;
  slo : Slo.t;  (* the attainment signal: every watched request outcome *)
  mutable page_pending : bool;  (* a Page burn alert since the last epoch *)
  (* autoscaler memory *)
  mutable bad_epochs : int;
  mutable hot_epochs : int;
  mutable idle_epochs : int;
  mutable last_completed : int;
  mutable last_good : int;
  mutable last_total : int;
  mutable last_migration : int;
  mutable migrating : bool;
  (* provisioning integral (replica-cycles) *)
  mutable serving_now : int;
  mutable last_change : int;
  mutable acc_replica_cycles : int;
}

type bstate = {
  b_id : int;
  caps : Placer.board_caps;
  mutable pool : int list;  (* free schedulable tiles *)
  mutable alive : bool;
  mutable load : int;  (* msgs_in delta, last load report *)
  mutable tile_msgs : int array;  (* per-tile msgs_in delta, last report *)
  mutable congested : bool;  (* router-congestion alarm this epoch *)
}

type t = {
  cluster : Cluster.t;
  sim : Sim.t;
  cfg : config;
  collector : Collector.t;
  flight : Flight.t;  (* controller flight ring: burn alerts land here *)
  boards : bstate array;
  mutable tenants : tenant list;  (* add_tenant order *)
  mutable replicas : replica list;
  mutable log : decision list;  (* newest first *)
  mutable n_slo_violations : int;
  mutable started : bool;
}

(* ------------------------------------------------------------------ *)
(* Bookkeeping helpers *)

let tenant_of t name = List.find (fun ten -> ten.spec.Placer.name = name) t.tenants
let reps_of t name = List.filter (fun r -> r.rep_tenant = name) t.replicas
let serving t name =
  List.filter (fun r -> r.rep_state = Active) (reps_of t name)

(* Pending and Active replicas both hold tiles and count against
   max_replicas; Draining ones hold a tile but no longer serve. *)
let counted t name =
  List.filter (fun r -> r.rep_state <> Draining) (reps_of t name)

let live_caps t =
  Array.to_list t.boards
  |> List.filter_map (fun b -> if b.alive then Some b.caps else None)

let used t b = t.boards.(b).caps.Placer.tiles - List.length t.boards.(b).pool
let board_load t b = t.boards.(b).load

let alloc_tile t board =
  let bs = t.boards.(board) in
  match bs.pool with
  | [] -> None
  | tile :: rest ->
    bs.pool <- rest;
    Some tile

let free_tile t board tile =
  let bs = t.boards.(board) in
  bs.pool <- List.sort compare (tile :: bs.pool)

let sync_client t ten =
  match ten.client with
  | None -> ()
  | Some c ->
    Shard_client.sync_boards c
      (List.sort compare
         (List.map (fun r -> r.rep_board) (serving t ten.spec.Placer.name)))

let note_replicas t ten =
  let now = Sim.now t.sim in
  let n = List.length (serving t ten.spec.Placer.name) in
  if n <> ten.serving_now then begin
    ten.acc_replica_cycles <-
      ten.acc_replica_cycles + (ten.serving_now * (now - ten.last_change));
    ten.serving_now <- n;
    ten.last_change <- now
  end

let decide t ~kind ~tenant ?(board = -1) ?(src = -1) note =
  let now = Sim.now t.sim in
  t.log <-
    { d_cycle = now; d_kind = kind; d_tenant = tenant; d_board = board;
      d_src = src; d_note = note }
    :: t.log;
  Stats.Counter.incr (Registry.counter ("sched." ^ kind));
  if Span.on () then
    Span.instant ~board:(-1)
      ~args:
        ([ ("tenant", tenant); ("note", note) ]
        @ (if board >= 0 then [ ("board", string_of_int board) ] else [])
        @ if src >= 0 then [ ("src", string_of_int src) ] else [])
      ~cat:"sched" ~name:kind ~track:4000 ~ts:now ()

let idle_behavior () = Shell.behavior "idle"

(* ------------------------------------------------------------------ *)
(* Deterministic cost model (controller-side predictions) *)

let pr_cycles (spec : Placer.tenant) =
  max 1 (spec.Placer.bitstream_bytes / Kernel.pr_bytes_per_cycle)

(* Context migration: save the context to DRAM (8 B/cycle, the E6
   swap path), ship it over the 100G uplink (50 B/cycle), restore on
   the destination. *)
let xfer_cycles (spec : Placer.tenant) =
  (2 * spec.Placer.state_bytes / 8) + (spec.Placer.state_bytes / 50)

(* ------------------------------------------------------------------ *)
(* Replica lifecycle *)

(* Launch one replica on [board] during the run: reserve the tile now,
   stage the board-side reconfiguration (PR delay modelled by the
   kernel), and activate controller-side — directory registration +
   client ring sync — once the predicted completion time passes.
   [extra_delay] front-loads migration state transfer. [on_active] runs
   after cutover with [true], or with [false] if the board died (or the
   replica was struck by a board-down) before activation. *)
let launch t ten ~board ~extra_delay ~on_active =
  match alloc_tile t board with
  | None -> None
  | Some tile ->
    let name = ten.spec.Placer.name in
    let rep =
      { rep_tenant = name; rep_board = board; rep_tile = tile;
        rep_state = Pending }
    in
    t.replicas <- t.replicas @ [ rep ];
    let nd = Cluster.node t.cluster board in
    let kernel = Node.kernel nd in
    let bhv = ten.behavior () in
    let bits = ten.spec.Placer.bitstream_bytes in
    let delay = Cluster.lookahead + extra_delay in
    Cluster.post_to_board t.cluster ~board ~delay (fun () ->
        Kernel.reconfigure kernel ~tile ~bitstream_bytes:bits bhv
          ~on_done:(fun () -> ()));
    Sim.after t.sim
      (delay + pr_cycles ten.spec + margin)
      (fun () ->
        if List.memq rep t.replicas && t.boards.(board).alive then begin
          rep.rep_state <- Active;
          Directory.register (Cluster.directory t.cluster) ~service:name
            ~board ~mac:(Node.mac_addr nd);
          note_replicas t ten;
          sync_client t ten;
          on_active true
        end
        else begin
          (* Destination died first: the tile is gone with the board
             (board_down already struck the record and emptied the
             pool). *)
          t.replicas <- List.filter (fun r -> r != rep) t.replicas;
          decide t ~kind:"abort" ~tenant:name ~board "destination lost";
          on_active false
        end);
    Some tile

(* Take a serving replica out of rotation (make-before-break tail, or a
   scale-down): cut the directory and client ring over now, keep the
   tile serving stragglers for [drain_delay], then reconfigure it to an
   idle slot and reclaim it. *)
let retire t ten rep =
  let name = rep.rep_tenant and board = rep.rep_board and tile = rep.rep_tile in
  rep.rep_state <- Draining;
  Directory.unregister (Cluster.directory t.cluster) ~service:name ~board;
  note_replicas t ten;
  sync_client t ten;
  Sim.after t.sim t.cfg.drain_delay (fun () ->
      if List.memq rep t.replicas then
        if t.boards.(board).alive then begin
          let kernel = Node.kernel (Cluster.node t.cluster board) in
          Cluster.post_to_board t.cluster ~board ~delay:Cluster.lookahead
            (fun () ->
              Kernel.reconfigure kernel ~tile ~bitstream_bytes:0
                (idle_behavior ())
                ~on_done:(fun () -> ()));
          Sim.after t.sim
            (Cluster.lookahead + 1 + margin)
            (fun () ->
              if List.memq rep t.replicas then begin
                t.replicas <- List.filter (fun r -> r != rep) t.replicas;
                free_tile t board tile
              end)
        end
        else t.replicas <- List.filter (fun r -> r != rep) t.replicas)

let try_grow t ten ~kind ~note =
  let name = ten.spec.Placer.name in
  let exclude = List.map (fun r -> r.rep_board) (reps_of t name) in
  match
    Placer.choose ~caps:(live_caps t) ~used:(used t) ~load:(board_load t)
      ~exclude ten.spec
  with
  | None ->
    decide t ~kind:"defer" ~tenant:name note;
    false
  | Some board ->
    (match launch t ten ~board ~extra_delay:0 ~on_active:(fun _ -> ()) with
    | None ->
      (* choose only returns boards with pool space *)
      assert false
    | Some _ ->
      decide t ~kind ~tenant:name ~board note;
      true)

let migrate t ten ~src_rep ~dst =
  let name = ten.spec.Placer.name in
  let src = src_rep.rep_board in
  ten.migrating <- true;
  ten.last_migration <- Sim.now t.sim;
  match
    launch t ten ~board:dst ~extra_delay:(xfer_cycles ten.spec)
      ~on_active:(fun ok ->
        ten.migrating <- false;
        if ok && List.memq src_rep t.replicas
           && src_rep.rep_state = Active
        then retire t ten src_rep)
  with
  | None ->
    ten.migrating <- false;
    decide t ~kind:"defer" ~tenant:name "migration target full"
  | Some _ ->
    decide t ~kind:"migrate" ~tenant:name ~board:dst ~src
      (Printf.sprintf "load %d -> %d" t.boards.(src).load t.boards.(dst).load)

(* ------------------------------------------------------------------ *)
(* Epoch evaluation: autoscale every tenant, then at most a few
   migrations off the hottest boards. *)

let autoscale_tenant t ten =
  match ten.client with
  | None -> ()
  | Some c ->
    let name = ten.spec.Placer.name in
    let completed = Shard_client.completed c in
    (* Attainment now comes from the tenant's Slo object — every request
       outcome, so timeouts and board-down reissues count against the
       budget, which the old latency-histogram delta could not see. *)
    let good = Slo.good_total ten.slo in
    let total = good + Slo.bad_total ten.slo in
    let d_ops = completed - ten.last_completed in
    let d_cnt = total - ten.last_total in
    let d_le = good - ten.last_good in
    ten.last_completed <- completed;
    ten.last_good <- good;
    ten.last_total <- total;
    let paged = ten.page_pending in
    ten.page_pending <- false;
    let n_serving = max 1 (List.length (serving t name)) in
    let cap = max 1 ten.spec.Placer.capacity_hint in
    if d_cnt >= min_samples then begin
      let ok_pct = d_le * 100 / d_cnt in
      if ok_pct < slo_target_pct then begin
        ten.bad_epochs <- ten.bad_epochs + 1;
        t.n_slo_violations <- t.n_slo_violations + 1;
        Stats.Counter.incr (Registry.counter "sched.slo_violation")
      end
      else ten.bad_epochs <- 0;
      if d_ops * 100 > hi_util_pct * cap * n_serving then
        ten.hot_epochs <- ten.hot_epochs + 1
      else ten.hot_epochs <- 0;
      if ok_pct >= slo_target_pct
         && d_ops * 100 < lo_util_pct * cap * n_serving
      then ten.idle_epochs <- ten.idle_epochs + 1
      else ten.idle_epochs <- 0
    end
    else begin
      (* Too little traffic to judge the SLO; it can still be idle. *)
      ten.bad_epochs <- 0;
      ten.hot_epochs <- 0;
      if d_ops * 100 < lo_util_pct * cap * n_serving then
        ten.idle_epochs <- ten.idle_epochs + 1
    end;
    if not ten.migrating then begin
      let n = List.length (counted t name) in
      (* A Page burn alert is an immediate scale-up trigger: the budget
         is bleeding too fast to wait out [up_epochs] of confirmation. *)
      if (paged
         || ten.bad_epochs >= t.cfg.up_epochs
         || ten.hot_epochs >= t.cfg.up_epochs)
         && n < ten.spec.Placer.max_replicas
      then begin
        let why =
          if paged then
            Printf.sprintf "burn-rate page (fast %.1f)"
              (Slo.burn_rate ten.slo
                 ~windows:(Slo.objective ten.slo).Slo.fast_windows)
          else if ten.bad_epochs >= t.cfg.up_epochs then
            Printf.sprintf "slo attainment %d%%"
              (if d_cnt > 0 then d_le * 100 / d_cnt else 0)
          else "demand above capacity"
        in
        ignore (try_grow t ten ~kind:"scale_up" ~note:why);
        ten.bad_epochs <- 0;
        ten.hot_epochs <- 0
      end
      else if ten.idle_epochs >= t.cfg.down_epochs
              && n > ten.spec.Placer.reservation
      then begin
        (* Shed the replica on the busiest board: consolidation both
           frees capacity there and keeps the cold boards serving. *)
        match
          List.sort
            (fun a b ->
              compare
                (- t.boards.(a.rep_board).load, a.rep_board)
                (- t.boards.(b.rep_board).load, b.rep_board))
            (serving t name)
        with
        | [] -> ()
        | victim :: _ ->
          decide t ~kind:"scale_down" ~tenant:name ~board:victim.rep_board
            "sustained low utilization";
          retire t ten victim;
          ten.idle_epochs <- 0
      end
    end

let consider_migrations t =
  let budget = ref max_migrations_per_epoch in
  let now = Sim.now t.sim in
  let hot =
    Array.to_list t.boards
    |> List.filter (fun b ->
           b.alive && (b.congested || b.load > t.cfg.hot_load))
    |> List.sort (fun a b -> compare (-a.load, a.b_id) (-b.load, b.b_id))
  in
  List.iter
    (fun hb ->
      if !budget > 0 then
        (* Busiest serving replica on the hot board whose tenant is
           eligible (not mid-migration, past its cooldown). *)
        let victims =
          List.filter
            (fun r -> r.rep_board = hb.b_id && r.rep_state = Active)
            t.replicas
          |> List.filter (fun r ->
                 let ten = tenant_of t r.rep_tenant in
                 (not ten.migrating)
                 && now - ten.last_migration >= t.cfg.cooldown)
          |> List.sort (fun a b ->
                 let m r =
                   if r.rep_tile < Array.length hb.tile_msgs then
                     hb.tile_msgs.(r.rep_tile)
                   else 0
                 in
                 compare (-m a, a.rep_tile) (-m b, b.rep_tile))
        in
        List.iter
          (fun victim ->
            if !budget > 0 then
              let ten = tenant_of t victim.rep_tenant in
              let cold_caps =
                live_caps t
                |> List.filter (fun (c : Placer.board_caps) ->
                       t.boards.(c.Placer.board).load <= t.cfg.cold_load)
              in
              let exclude =
                List.map (fun r -> r.rep_board) (reps_of t victim.rep_tenant)
              in
              match
                Placer.choose ~caps:cold_caps ~used:(used t)
                  ~load:(board_load t) ~exclude ten.spec
              with
              | Some dst when dst <> hb.b_id ->
                migrate t ten ~src_rep:victim ~dst;
                decr budget
              | _ -> ())
          victims)
    hot

let epoch_tick t =
  List.iter (fun ten -> autoscale_tenant t ten) t.tenants;
  consider_migrations t;
  Array.iter (fun b -> b.congested <- false) t.boards

(* ------------------------------------------------------------------ *)
(* Failure handling (the Rack_health alarm path) *)

let handle_board_down t b =
  let bs = t.boards.(b) in
  if bs.alive then begin
    bs.alive <- false;
    bs.pool <- [];
    bs.load <- 0;
    bs.congested <- false;
    let dead = List.filter (fun r -> r.rep_board = b) t.replicas in
    t.replicas <- List.filter (fun r -> r.rep_board <> b) t.replicas;
    decide t ~kind:"board_down" ~tenant:"-" ~board:b
      (Printf.sprintf "%d replicas displaced" (List.length dead));
    (* Re-place each displaced serving replica on a survivor right away
       — the displaced tenants' clients have already resharded via
       Cluster.on_board_down, so capacity is what they are missing. *)
    List.iter
      (fun r ->
        let ten = tenant_of t r.rep_tenant in
        note_replicas t ten;
        sync_client t ten;
        if r.rep_state <> Draining then
          ignore
            (try_grow t ten ~kind:"replace"
               ~note:(Printf.sprintf "displaced from board %d" b)))
      dead
  end

let handle_board_up t _b =
  (* A restored board's slots still hold their pre-failure behaviors,
     which the scheduler no longer accounts for — leave it out of the
     schedulable pool. But Shard_client re-admits restored boards
     unconditionally, so narrow every watched ring back to the actual
     placement. *)
  List.iter (fun ten -> sync_client t ten) t.tenants

(* ------------------------------------------------------------------ *)
(* Telemetry plane *)

(* Rack side: load reports and alarms arrive as records on the boards'
   management streams, through the Collector. A dead board's records
   are ignored (its reports die at the downed port anyway). *)
let on_record t ~board r =
  let bs = t.boards.(board) in
  if bs.alive then
    match r with
    | Wire.Load { msgs; tile_msgs } ->
      bs.load <- msgs;
      bs.tile_msgs <- tile_msgs
    | Wire.Alarm { kind = 1; _ } -> bs.congested <- true
    | _ -> ()

(* Board side: periodic load reports off the stat service's counter
   blocks, plus health alarms, both pushed into the board's telemetry
   agent. Armed before the run, so each board's events live wholly in
   its own partition. *)
let arm_telemetry t =
  Collector.on_record t.collector (on_record t);
  List.iteri
    (fun i nd ->
      let kernel = Node.kernel nd in
      let sim = Node.sim nd in
      let agent = Collector.agent t.collector i in
      let ntiles = Kernel.n_tiles kernel in
      let last_msgs = ref 0 in
      let last_tile = Array.make ntiles 0 in
      Sim.every sim ~start:(t.cfg.report_period + i) t.cfg.report_period
        (fun () ->
          match Statsvc.answer kernel Statsvc.Board with
          | None -> ()
          | Some blk ->
            let msgs = Perf.read blk Perf.msgs_in in
            let dm = msgs - !last_msgs in
            last_msgs := msgs;
            let tile_msgs =
              Array.init ntiles (fun tl ->
                  let m =
                    match Statsvc.answer kernel (Statsvc.Tile tl) with
                    | Some p -> Perf.read p Perf.msgs_in
                    | None -> 0
                  in
                  let d = m - last_tile.(tl) in
                  last_tile.(tl) <- m;
                  d)
            in
            Agent.push agent ~now:(Sim.now sim)
              (Wire.Load { msgs = dm; tile_msgs }));
      let health = Health.create kernel in
      Health.on_alarm health (fun alarm ->
          let kind, tile =
            match alarm with
            | Health.Stuck_tile { tile; _ } -> (0, tile)
            | Health.Congested_router { tile; _ } -> (1, tile)
          in
          Agent.push agent ~now:(Sim.now sim) (Wire.Alarm { kind; tile })))
    (Cluster.nodes t.cluster)

(* ------------------------------------------------------------------ *)
(* Construction and start-up *)

let create ?(config = default_config) cluster ~collector ~slot_cells =
  (* Controller flight ring, built and armed like the kernels': burn-rate
     alerts and other controller events land here for postmortems. *)
  let flight = Flight.of_env () in
  let boards =
    Array.init (Cluster.n_boards cluster) (fun b ->
        let pool = Node.free_tiles (Cluster.node cluster b) in
        {
          b_id = b;
          caps =
            {
              Placer.board = b;
              tiles = List.length pool;
              slot_cells = slot_cells b;
            };
          pool;
          alive = true;
          load = 0;
          tile_msgs = [||];
          congested = false;
        })
  in
  let t =
    {
      cluster;
      sim = Cluster.sim cluster;
      cfg = config;
      collector;
      flight;
      boards;
      tenants = [];
      replicas = [];
      log = [];
      n_slo_violations = 0;
      started = false;
    }
  in
  t

let add_tenant t ~spec ~behavior =
  if t.started then invalid_arg "Sched.add_tenant: scheduler already started";
  if List.exists (fun ten -> ten.spec.Placer.name = spec.Placer.name) t.tenants
  then invalid_arg "Sched.add_tenant: duplicate tenant";
  let slo =
    Slo.create
      (Slo.default_objective
         ~target_pct:(float_of_int slo_target_pct)
         ~window:t.cfg.slo_window ~min_samples:t.cfg.slo_min_samples
         ~tenant:spec.Placer.name ~latency_cycles:spec.Placer.slo_cycles ())
  in
  let ten =
    {
      spec;
      behavior;
      client = None;
      slo;
      page_pending = false;
      bad_epochs = 0;
      hot_epochs = 0;
      idle_epochs = 0;
      last_completed = 0;
      last_good = 0;
      last_total = 0;
      last_migration = -max_int / 2;
      migrating = false;
      serving_now = 0;
      last_change = 0;
      acc_replica_cycles = 0;
    }
  in
  (* Burn alerts are decisions too: logged, counted, span-marked, and
     recorded into the controller flight ring (the PR-5 alarm path). A
     Page also primes the autoscaler for an immediate scale-up. *)
  Slo.on_alert slo (fun (a : Slo.alert) ->
      let sev = Slo.severity_to_string a.Slo.a_severity in
      decide t ~kind:"slo_alert" ~tenant:spec.Placer.name
        (Printf.sprintf "%s burn fast %.1f slow %.1f" sev a.Slo.a_burn_fast
           a.Slo.a_burn_slow);
      Flight.record t.flight ~ts:a.Slo.a_cycle ~tile:(-1) ~cat:"slo" ~name:sev
        ~args:
          [
            ("tenant", spec.Placer.name);
            ("burn_fast", Printf.sprintf "%.1f" a.Slo.a_burn_fast);
            ("burn_slow", Printf.sprintf "%.1f" a.Slo.a_burn_slow);
          ]
        ();
      if a.Slo.a_severity = Slo.Page then ten.page_pending <- true);
  t.tenants <- t.tenants @ [ ten ]

let watch t ~tenant client =
  let ten = tenant_of t tenant in
  ten.client <- Some client;
  (* Every request outcome — Ok, timeout, board-down reissue, non-Ok
     reply — feeds the tenant's error budget. Completions happen on the
     rack sim (member 0), so Seq/Par byte-identity is preserved. *)
  Shard_client.set_on_outcome client (fun ~now ~req:_ ~latency ->
      let good =
        match latency with
        | Some l -> l <= ten.spec.Placer.slo_cycles
        | None -> false
      in
      Slo.observe ten.slo ~now ~good)

(* The in-band alternative to [watch]'s client-side hook: attainment
   reconstructed from what the rack collector actually received over
   the fabric — server-observed service time and status from collected
   [serve] spans. Requests that died before any replica saw them are
   invisible here (only the client knows about those), which is the
   honest trade of moving the SLO signal in-band; E16e measures the
   difference. The client is still bound via [watch]-less
   [sync_client], so placement changes keep re-syncing its ring. *)
let watch_collected t ~tenant =
  let ten = tenant_of t tenant in
  Collector.on_service_outcome t.collector (fun ~now (o : Collector.outcome) ->
      if o.Collector.o_service = ten.spec.Placer.name then begin
        let good = o.Collector.o_ok && o.Collector.o_dur <= ten.spec.Placer.slo_cycles in
        Slo.observe ten.slo ~now ~good
      end)

let watch_client_only t ~tenant client =
  let ten = tenant_of t tenant in
  ten.client <- Some client

(* Initial placement runs before the engine does, so replicas go
   straight onto their tiles (boot-time configuration, not PR) and are
   directory-registered immediately. *)
let initial_install t ten board =
  match alloc_tile t board with
  | None -> assert false (* Placer.place respects tile capacity *)
  | Some tile ->
    let name = ten.spec.Placer.name in
    let nd = Cluster.node t.cluster board in
    Kernel.install (Node.kernel nd) ~tile (ten.behavior ());
    Directory.register (Cluster.directory t.cluster) ~service:name ~board
      ~mac:(Node.mac_addr nd);
    t.replicas <-
      t.replicas
      @ [ { rep_tenant = name; rep_board = board; rep_tile = tile;
            rep_state = Active } ];
    decide t ~kind:"place" ~tenant:name ~board "initial"

let start t =
  if t.started then invalid_arg "Sched.start: already started";
  t.started <- true;
  arm_telemetry t;
  let targets =
    List.map (fun ten -> (ten.spec, ten.spec.Placer.reservation)) t.tenants
  in
  let placement, shortfalls =
    Placer.place ~caps:(live_caps t) ~targets ~current:[] ~load:(fun _ -> 0)
  in
  List.iter
    (fun (name, bs) ->
      let ten = tenant_of t name in
      List.iter (fun b -> initial_install t ten b) bs)
    placement;
  List.iter
    (fun (name, k) ->
      decide t ~kind:"defer" ~tenant:name
        (Printf.sprintf "initial shortfall of %d replicas" k))
    shortfalls;
  List.iter
    (fun ten ->
      note_replicas t ten;
      sync_client t ten)
    t.tenants;
  Cluster.on_board_down t.cluster (fun b -> handle_board_down t b);
  Cluster.on_board_up t.cluster (fun b -> handle_board_up t b);
  (* Close SLO windows on the clock, not just on traffic: a tenant that
     goes quiet mid-incident must still get its alerts evaluated. *)
  Sim.every t.sim ~start:t.cfg.slo_window t.cfg.slo_window (fun () ->
      let now = Sim.now t.sim in
      List.iter (fun ten -> Slo.check ten.slo ~now) t.tenants);
  Sim.every t.sim ~start:t.cfg.epoch t.cfg.epoch (fun () -> epoch_tick t)

(* ------------------------------------------------------------------ *)
(* Introspection *)

let decisions t = List.rev t.log

let decisions_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"cycle\": %d, \"kind\": %S, \"tenant\": %S, \"board\": %d, \
            \"src\": %d, \"note\": %S}"
           d.d_cycle d.d_kind d.d_tenant d.d_board d.d_src d.d_note))
    (decisions t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let totals t =
  let count kind =
    List.fold_left
      (fun acc d -> if d.d_kind = kind then acc + 1 else acc)
      0 t.log
  in
  let place = count "place"
  and scale_ups = count "scale_up"
  and replaced = count "replace" in
  {
    placements = place + scale_ups + replaced;
    migrations = count "migrate";
    scale_ups;
    scale_downs = count "scale_down";
    deferred = count "defer";
    replaced;
    slo_violations = t.n_slo_violations;
  }

let replicas t ~tenant = List.length (serving t tenant)

let placement t ~tenant =
  List.sort compare (List.map (fun r -> r.rep_board) (serving t tenant))

let replica_cycles t ~tenant ~now =
  let ten = tenant_of t tenant in
  ten.acc_replica_cycles + (ten.serving_now * (now - ten.last_change))

let slo t ~tenant = (tenant_of t tenant).slo
let flight t = t.flight

let slo_report_json t =
  Slo.report_json_string (List.map (fun ten -> ten.slo) t.tenants)

let write_slo_report t path =
  let oc = open_out path in
  output_string oc (slo_report_json t);
  close_out oc

let register_metrics t =
  Registry.add_sampler ~name:"sched" (fun () ->
      List.iter
        (fun ten ->
          let name = ten.spec.Placer.name in
          Stats.Gauge.set
            (Registry.gauge (Printf.sprintf "sched.%s.replicas" name))
            (float_of_int (List.length (serving t name)));
          Stats.Gauge.set
            (Registry.gauge (Printf.sprintf "sched.%s.burn_fast" name))
            (Slo.burn_rate ten.slo
               ~windows:(Slo.objective ten.slo).Slo.fast_windows);
          Stats.Gauge.set
            (Registry.gauge (Printf.sprintf "sched.%s.budget_pct" name))
            (Slo.budget_remaining_pct ten.slo))
        t.tenants;
      Array.iter
        (fun bs ->
          Stats.Gauge.set
            (Registry.gauge (Printf.sprintf "sched.board%d.load" bs.b_id))
            (float_of_int bs.load))
        t.boards)
