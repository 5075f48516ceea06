(** The elastic multi-tenant scheduler: a rack-controller service that
    places accelerator contexts onto tiles ({!Placer}), migrates hot
    tenants between boards with context-swap + partial reconfiguration,
    and autoscales replica counts against each tenant's SLO — the
    cluster-level "OS scheduler" the paper's multi-tenancy story implies
    (§4.1 replicated accelerators, §6-Q3 rack-scale OS functionality).

    {2 Control and telemetry planes}

    All scheduler state lives on the rack controller (the rack engine's
    member 0). Telemetry flows {e up} as records on each board's
    {!Apiary_obs.Agent} stream: a periodic load report from the board's
    own {!Apiary_core.Statsvc} counter blocks (board and per-tile
    message deltas), and the stuck-tile and router-congestion alarms of
    an {!Apiary_core.Health} watchdog per board. Commands flow {e down}
    through {!Apiary_cluster.Cluster.post_to_board} with at least one
    uplink of latency — the same staging protocol as frames and
    directory announcements — so Seq and Par engine runs are
    byte-identical. A killed board's reports die at its downed switch
    port; staleness is exactly what the controller should see.

    {2 Decisions}

    - {b Placement}: initial replicas at each tenant's reservation, bin
      packed under the floorplan area model.
    - {b Autoscale}: per epoch, a tenant whose SLO attainment (measured
      on its watched {!Apiary_cluster.Shard_client}) stays below target
      — or whose per-replica throughput saturates its capacity hint —
      for 2 epochs gains a replica if capacity exists ({e never} by
      evicting another tenant; denied growth is logged as a [defer]).
      Sustained low utilization sheds replicas down to the reservation.
    - {b Migration}: a board that is congestion-alarmed or beyond
      [hot_load] sheds its busiest tenant to a board under [cold_load],
      make-before-break: install on the destination (state transfer +
      PR modelled as deterministic cycle costs), cut the directory and
      client rings over once active, drain, then reconfigure the old
      tile to an idle slot and reclaim it.
    - {b Failure}: on {!Apiary_cluster.Cluster.report_down} (the rack
      watchdog's alarm path) the dead board's replicas are struck and
      displaced tenants re-placed on survivors immediately.

    Every decision is cycle-stamped into a log ({!decisions_json} is
    byte-stable) and, when span tracing is on, mirrored as
    ["sched"]-category instants. *)

module Shell := Apiary_core.Shell
module Cluster := Apiary_cluster.Cluster
module Shard_client := Apiary_cluster.Shard_client
module Collector := Apiary_cluster.Collector
module Slo := Apiary_obs.Slo
module Flight := Apiary_obs.Flight

type config = {
  hot_load : int;  (** board msgs/load report above which it sheds load *)
  cold_load : int;  (** board msgs/load report below which it accepts migrations *)
  slo_window : int;
      (** SLO accounting window ({!Apiary_obs.Slo}), cycles; windows
          also close on this clock so alerts fire even when a tenant
          goes quiet *)
  slo_min_samples : int;
      (** burn rates read as 0 over window spans with fewer samples
          than this ({!Apiary_obs.Slo.objective}'s [min_samples]) —
          size it to the window, not the epoch *)
}

val default_config : config
(** hot 2000 / cold 800 msgs/report, SLO window 5_000 with 20 min
    samples.

    Fixed, because every rack that runs a scheduler (E14's elastic
    variants, E16e, [apiary sched]/[slo]) uses the same values: load
    reports every 4_000 cycles (the unit of [hot_load] and
    [cold_load]), a 20_000-cycle epoch, 2 bad or saturated epochs
    before a scale-up and 3 idle ones before a scale-down, at least
    60_000 cycles between two migrations of one tenant, and 30_000
    cycles of draining before a cut-over replica's tile is reclaimed
    (above the shard clients' 20_000-cycle request timeout, so no
    in-flight request is lost). The policy is fixed too: the
    {!Apiary_obs.Slo.target_pct} attainment target, not judged in an
    epoch with fewer than 10 completions, 90/25% utilization bands, one
    migration per epoch, installs counted done 128 cycles after the
    time predicted from {!Apiary_core.Kernel.pr_bytes_per_cycle}. *)

type t

val create :
  ?config:config -> Cluster.t -> collector:Collector.t ->
  slot_cells:(int -> int) -> t
(** Attach a scheduler to the rack, with its telemetry riding
    [collector]'s agents, and snapshot each board's free tiles as its
    schedulable slots.
    [slot_cells board] is the per-slot logic-cell budget (a
    {!Apiary_resource.Floorplan.plan}'s [slot_logic_cells]) — boards
    built from different parts get different budgets. Boards the
    scheduler manages must receive {e all} their installs through it. *)

val add_tenant :
  t -> spec:Placer.tenant -> behavior:(unit -> Shell.behavior) -> unit
(** Declare a tenant before {!start}. [behavior] builds a fresh replica
    behavior per placement (it must register [spec.name] with the
    board kernel on boot, as {!Apiary_accel.Accels} behaviors do). *)

val watch : t -> tenant:string -> Shard_client.t -> unit
(** Bind the tenant's external load generator: every request outcome
    (including timeouts, which no latency histogram can see) feeds the
    tenant's {!Apiary_obs.Slo} error budget — the autoscaler's
    attainment signal — and every placement change re-syncs the client's
    shard ring so traffic follows the placement. Claims the client's
    [set_on_outcome] hook. *)

val watch_collected : t -> tenant:string -> unit
(** In-band alternative to {!watch}: feed the tenant's error budget
    from the scheduler's collector's service-outcome stream
    (server-observed latency and status from collected [serve] spans,
    delivered over the fabric) instead of the client's local hook.
    Honestly blind to requests no replica ever saw — client-side
    timeouts stay client-side; E16e measures the gap. Combine with
    {!watch_client_only} so placement changes still re-sync the
    client's shard ring. *)

val watch_client_only : t -> tenant:string -> Shard_client.t -> unit
(** Bind the tenant's client for shard-ring re-syncs on placement
    changes {e without} claiming its outcome hook (used alongside
    {!watch_collected}). *)

val start : t -> unit
(** Place initial replicas (each tenant at its reservation, in
    [add_tenant] order), arm board load reports and health watchdogs, and
    subscribe to the cluster's failure/recovery announcements. Call
    after tenants are declared and clients watched, before running the
    engine. *)

(** {1 Introspection} *)

type decision = {
  d_cycle : int;
  d_kind : string;
      (** [place], [scale_up], [scale_down], [migrate], [replace],
          [defer], [abort], [board_down], [slo_alert] *)
  d_tenant : string;  (** ["-"] for board-level events *)
  d_board : int;  (** destination board, [-1] when not applicable *)
  d_src : int;  (** migration source board, [-1] otherwise *)
  d_note : string;
}

type totals = {
  placements : int;  (** initial placements + scale-ups + replacements *)
  migrations : int;
  scale_ups : int;
  scale_downs : int;  (** voluntary replica evictions (to reservation) *)
  deferred : int;  (** growth denied for lack of capacity *)
  replaced : int;  (** replicas re-placed after a board death *)
  slo_violations : int;  (** tenant-epochs below the attainment target *)
}

val decisions : t -> decision list
(** Oldest first. *)

val decisions_json : t -> string
(** The decision log as a JSON array (cycle-stamped only — byte-stable
    across identical runs and engine modes). *)

val totals : t -> totals

val replicas : t -> tenant:string -> int
(** Currently serving replicas. *)

val placement : t -> tenant:string -> int list
(** Boards currently serving the tenant, ascending. *)

val replica_cycles : t -> tenant:string -> now:int -> int
(** Integral of serving replicas over time up to [now] — divide by the
    run length for average provisioned replicas. *)

val slo : t -> tenant:string -> Slo.t
(** The tenant's SLO object: error-budget totals, burn rates, the alert
    log, and the first-below-target cycle. *)

val slo_report_json : t -> string
(** Per-tenant SLO report ({!Apiary_obs.Slo.report_json_string}) over
    all tenants in [add_tenant] order — byte-stable. *)

val write_slo_report : t -> string -> unit

val flight : t -> Flight.t
(** The controller's flight ring. Burn-rate alerts are recorded into it
    (category ["slo"], name ["page"]/["ticket"]); arm it with
    [APIARY_FLIGHT=1] or {!Apiary_obs.Flight.set_enabled}, like the
    kernels' rings. *)
