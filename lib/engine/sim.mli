(** Hybrid discrete-event / cycle-stepped simulation core.

    The simulator advances in integer cycles. Within one cycle, execution
    proceeds in three deterministic phases:

    + {b events} scheduled for the current cycle run in (time, insertion)
      order — used for timed completions (DRAM, timeouts, link delays);
    + {b tickers} run in registration order — clocked components
      (routers, monitors, accelerators) do their per-cycle work;
    + {b commit} — two-phase state such as {!Fifo} or a mesh's flit RAM
      moves staged writes into visible state, so phase-2 components
      never observe values written in the same cycle regardless of their
      relative order.

    This mirrors registered (flip-flop) hardware semantics: every
    producer→consumer hop costs at least one cycle, and results do not
    depend on component registration order.

    {2 The event queue}

    Events wait in a timing wheel of 512 one-cycle slots, each holding
    its cycle's closures in scheduling order. The wheel covers the
    cycles before its {e horizon}, which every executed cycle sets one
    wheel turn past itself. An event at or past the horizon waits in a
    far queue, a [(time, seq)] heap, and moves into its slot at the
    start of the first executed cycle whose horizon covers it, ahead of
    any event scheduled straight into that slot later. Short delays
    (link and switch latencies) therefore cost an array append, and
    only long timers pay for the heap.

    {2 The activity-set scheduler}

    Clocked components report an {!activity} after each tick. A [Busy]
    ticker stays {e armed} and runs again next cycle. A ticker reporting
    [Idle]/[Idle_until] is {e parked}: it is not called at all — zero
    cost per cycle — until something re-arms it:

    - its [Idle_until] wake cycle is reached: a wake heap keyed
      [(wake cycle, ticker index)] arms it as that cycle starts (an
      entry made stale by a later re-arm or park is dropped when it
      surfaces);
    - two-phase state it consumes commits new entries (a {!Fifo}, or a
      NoC channel, re-arms its registered owner handle);
    - a component re-arms it explicitly via {!rearm} (e.g. NIC send,
      monitor ingress).

    The armed set is a bitset over ticker indices, 32 to an int word,
    with a count of its members. The tick phase visits its set bits in
    ascending index order, over the tickers registered before the phase
    began, and reads the current word afresh after every tick. That scan
    rule alone gives the flat scheduler's re-arm timing: a re-arm from
    the event phase runs the ticker the same cycle; a re-arm aimed past
    the running ticker runs it the same cycle (it would have observed
    the write anyway); a re-arm aimed at an index already passed, or made
    from the commit phase, runs it next cycle (the write was not visible
    to it this cycle under two-phase rules). A ticker that re-arms itself
    stays armed whatever it reports.

    Whether a component is armed is readable per handle via {!armed}; a
    group's aggregate activity (a mesh column, say) is the count of its
    armed handles. A fully parked group costs nothing per cycle even
    while the rest of the board runs cycle-by-cycle.

    {2 Quiescence and idle fast-forward}

    When a cycle ends with no ticker armed and nothing committed,
    the simulator is {e quiescent}: ticking further cycles would be a
    pure no-op until the next event or the earliest [Idle_until]
    wake fires. [run_until] then jumps the clock directly to that point
    instead of stepping through dead cycles. Skipped and parked cycles are observationally identical
    to executed ones, so a run remains a pure function of its inputs
    (bit-identical results, same event order, same RNG streams).

    The contract for an [Idle] report: until this ticker is re-armed
    (owner-FIFO commit/inject, explicit {!rearm}, or its [Idle_until]
    cycle), calling it again would change no state.
    Components that consume entropy or count every cycle must either
    report [Busy] or precompute their future (see {!Traffic}) and report
    an honest [Idle_until]. *)

type t

(** What a clocked component reports after its tick. *)
type activity =
  | Busy  (** Did work, or may do work next cycle — keep stepping. *)
  | Idle
      (** No work possible until re-armed (owner-FIFO commit/inject,
          explicit {!rearm}); the scheduler parks this component and
          stops calling it. *)
  | Idle_until of int
      (** Like [Idle], but the component can act on its own at the given
          cycle (timer expiry, token-bucket refill, precomputed
          injection) even without external stimulus. *)

type handle
(** Identifies a registered clocked component for re-arming. *)

val no_handle : handle
(** Inert handle: {!rearm} on it is a no-op. Lets producers hold an
    optional owner without boxing. *)

val create : unit -> t

val now : t -> int
(** Current cycle. *)

val at : t -> int -> (unit -> unit) -> unit
(** [at t time f] runs [f] in the event phase of cycle [time]. A [time]
    in the past raises [Invalid_argument]. A [time] equal to the current
    cycle is honoured while that cycle's event phase is still open
    (before the cycle starts executing, or from within the event phase);
    once the event phase has completed — i.e. when scheduling from a
    ticker or the commit phase — it is deferred to the next cycle. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t d f] is exactly [at t (now t + d) f]; [d >= 0]. In
    particular [after t 0 f] follows {!at}'s current-cycle rule: it runs
    this cycle if the event phase is still open, otherwise next cycle. *)

val every : t -> ?start:int -> int -> (unit -> unit) -> unit
(** [every t ~start period f] runs [f] in the event phase each [period]
    cycles, first at cycle [start] (default: next multiple of [period]). *)

val add_clocked : ?name:string -> t -> (unit -> activity) -> unit
(** Register a per-cycle clocked component (phase 2). The callback runs
    every cycle while armed and reports its {!activity};
    [Idle]/[Idle_until] reports park it (see module docs). [name] labels
    the component in {!Profile} output when [APIARY_PROF] is set; when
    profiling is off the name is discarded and the tick path is
    unchanged. *)

val add_clocked_h : ?name:string -> t -> (unit -> activity) -> handle
(** Like {!add_clocked} but returns the component's {!handle} so
    producers (FIFOs, NIC send paths, monitor ingress) can re-arm it. *)

val rearm : t -> handle -> unit
(** Arm a parked component ({!no_handle} and
    already-armed handles are no-ops). Timing follows the re-arm rules
    in the module docs; any pending [Idle_until] wake is superseded. *)

val armed : t -> handle -> bool
(** Whether the component is armed (scheduled to run), as opposed to
    parked; [false] for {!no_handle}. *)

val active_tickers : t -> int
(** Number of armed tickers: those the next executed cycle runs. *)

val mark_dirty : t -> (unit -> unit) -> unit
(** [mark_dirty t commit] schedules [commit] to run once, in this
    cycle's commit phase (or the next commit phase to execute, if called
    outside a cycle). Two-phase containers call this on their first
    staged write of a cycle; the commit phase then walks only dirty
    containers — O(containers written) rather than O(all containers).
    [commit] must not stage new two-phase writes (it may {!rearm} parked
    consumers, which lands next cycle). *)

val step : t -> unit
(** Advance exactly one cycle (never fast-forwards). *)

val run_until : t -> int -> unit
(** Run cycles until [now t = time] (exclusive of the target cycle's
    execution), fast-forwarding across quiescent gaps. An exception
    from an event propagates with the clock still in that cycle and the
    cycle's later events pending; the next run starts with them. *)

val run_for : t -> int -> unit
(** [run_for t n] advances [n] cycles. *)

val stop : t -> unit
(** Request that the enclosing [run_until]/[run_for] return at the end of
    the current cycle. *)

val pending_events : t -> int
(** Number of scheduled future events (for tests). *)

val next_activity : t -> int
(** Earliest cycle at which the simulator can next do work: [now t]
    unless every clocked component is quiescent, in which case the next
    event (the first non-empty wheel slot, found within one wheel turn,
    else the far queue's head) or [Idle_until] wake-up ([max_int] when
    neither exists).
    {!Par_sim}'s adaptive windows widen to this bound plus the
    lookahead. *)

val cycles_skipped : t -> int
(** Cycles fast-forwarded (not executed) since creation — for tests and
    perf reporting. *)

val tick_counts : t -> int * int
(** [(active, skipped)] ticker-call counts for this instance: calls
    actually executed vs calls the activity-set scheduler avoided
    (parked tickers during executed cycles, plus every ticker during
    fast-forwarded cycles). *)

val total_cycles : unit -> int
(** Simulated cycles advanced across {e all} counted simulator instances
    in the process (atomic; safe under domain-parallel sweeps). Executed
    and skipped cycles both count: this is simulated time, the numerator
    of cycles/second. *)

val total_skipped : unit -> int
(** Cycles fast-forwarded (not executed) across all counted instances —
    with {!total_cycles}, gives the process-wide skipped-cycle ratio. *)

val total_active_ticks : unit -> int
(** Ticker calls executed across all instances (flushed at each
    [run_until] exit). Not [counted]-gated: every partition member's
    tick work is real and counted once. *)

val total_skipped_ticks : unit -> int
(** Ticker calls avoided by the activity-set scheduler across all
    instances — with {!total_active_ticks}, gives the idle-skipping
    ratio the perf guard watches. *)

val set_counted : t -> bool -> unit
(** Whether this instance's cycles feed {!total_cycles}/{!total_skipped}
    (default [true]). {!Par_sim} marks all but one member domain
    uncounted so a partitioned simulation counts its simulated time
    once, not once per domain. *)
