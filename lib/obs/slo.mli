(** Per-tenant SLO objects: error-budget accounting and multi-window
    burn-rate alerting (the Google-SRE alerting recipe, on simulation
    cycles instead of wall minutes).

    Each request outcome is classified good or bad against the tenant's
    latency objective and accumulated into fixed-width cycle windows. A
    {e burn rate} is the observed bad fraction divided by the budgeted
    bad fraction [(100 - target_pct)/100]: burn 1.0 spends the error
    budget exactly at the sustainable rate. Two horizons are watched at
    every window close:

    - {b Page}: the fast horizon ({!fast_windows}) {e and} the
      just-closed window both burn at {!page_burn} — a fast, confirmed
      bleed;
    - {b Ticket}: the slow horizon ({!slow_windows}) {e and} the fast
      horizon both burn at {!ticket_burn} — a slow leak.

    Alerts are edge-triggered (one per excursion) and re-arm once the
    horizon drops back below its threshold. A [min_samples] traffic
    guard keeps near-idle windows from alerting on a handful of
    requests. Because windows close on simulation cycles and evaluation
    is pure integer/float arithmetic over deterministic counts, the
    alert stream and {!report_json_string} are byte-stable for a fixed
    run. *)

type severity = Page | Ticket

type alert = {
  a_cycle : int;  (** window-close cycle the rule fired at *)
  a_severity : severity;
  a_burn_fast : float;
  a_burn_slow : float;
}

(** {2 The alerting recipe}

    One value each, for every tenant: the scheduler, E15 and
    [apiary top] all judge against the same target and horizons. What
    differs between them is the window width and the traffic guard,
    which stay in {!objective}. *)

val target_pct : float
(** 99.0: the percentage of requests that must be good. *)

val fast_windows : int
(** 2: the fast burn horizon, in windows. *)

val slow_windows : int
(** 12: the slow burn horizon, in windows; also the ring size. *)

val page_burn : float
(** 8.0: the classic page threshold, eight times the sustainable burn. *)

val ticket_burn : float
(** 2.0. *)

type objective = {
  tenant : string;
  latency_cycles : int;  (** the latency bound the tenant is judged against *)
  window : int;  (** accounting window width, cycles *)
  min_samples : int;  (** horizon traffic guard *)
}

val default_objective :
  ?window:int -> ?min_samples:int -> tenant:string -> latency_cycles:int ->
  unit -> objective
(** Defaults: window 5000 cycles, min 20 samples per horizon. Raises
    [Invalid_argument] unless [window > 0]. *)

type t

val create : objective -> t

val observe : t -> now:int -> good:bool -> unit
(** Record one request outcome at cycle [now]. Closes (and evaluates)
    any windows ending at or before [now] first; cycles must be
    non-decreasing. *)

val observe_n : t -> now:int -> good:int -> bad:int -> unit
(** Batch form for delta-fed callers (e.g. [apiary top] differencing a
    latency histogram between renders). *)

val check : t -> now:int -> unit
(** Close windows up to [now] without recording anything, so alerts
    still fire on schedule when a tenant goes quiet mid-incident. *)

val on_alert : t -> (alert -> unit) -> unit
(** Subscribe; called synchronously, in subscription order, as alerts
    fire. *)

val attainment_pct : t -> float
(** Whole-run good fraction, percent; 100 when no traffic yet. *)

val budget_remaining_pct : t -> float
(** Unspent fraction of the whole-run error budget, percent, clamped at
    0. *)

val burn_rate : t -> windows:int -> float
(** Burn over the last [windows] closed windows (capped at
    {!slow_windows}); 0 under the traffic guard. *)

val first_below_target : t -> int option
(** First cycle whole-run attainment dropped below target (with at
    least [min_samples] observed) — the "SLO actually violated" moment
    burn alerts are meant to precede. *)

val first_alert_cycle : t -> int option
val alerts : t -> alert list
(** Oldest first. *)

val good_total : t -> int
val bad_total : t -> int

val report_json_string : t list -> string
(** Byte-stable document:
    [{"tenants": [{"tenant", "target_pct", "latency_cycles", "window",
    "good", "bad", "attainment_pct", "budget_remaining_pct",
    "burn_fast", "burn_slow", "first_below_target_cycle",
    "first_alert_cycle", "alerts": [{"cycle", "severity", "burn_fast",
    "burn_slow"}, ...]}, ...]}]. *)

val severity_to_string : severity -> string
(** ["page"] / ["ticket"]. *)
