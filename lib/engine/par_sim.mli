(** Conservative parallel-in-time coordination over several {!Sim}
    instances (a "parallel discrete-event simulation" scheme, PDES).

    A simulation is partitioned into [n] {e member domains}, one
    {!Sim.t} each. Members tick independently inside a {e
    synchronization window}; the {e lookahead} is the minimum latency of
    any cross-partition interaction. Within a window a member may touch
    only its own simulator's state; anything bound for another partition
    is staged with {!post} and carries an absolute delivery cycle at
    least one lookahead past the poster's own clock (checked at run
    time).

    Every staged post first lands in the destination member's {e
    canonical pending queue}, ordered by [(time, source partition,
    source sequence)], and is flushed into the destination simulator
    only when the window that could execute its cycle is about to open.
    The per-simulator insertion order of cross-partition events is
    therefore a pure function of the inputs — independent of window
    widths, window placement, execution mode and real-time interleaving.

    Execution modes ({!mode}) share that schedule:

    - {b Seq} runs the members round-robin on the calling domain — the
      reference engine;
    - {b Par} runs each window's members on a pool of OCaml domains.

    Every window ends at a global barrier. With [~adaptive:true] the
    coordinator widens each window to [earliest + lookahead], where
    [earliest] is the soonest any member can next do work
    ({!Sim.next_activity} or its earliest pending post) — sparse boundary
    traffic then costs few barriers, while bursts fall back to
    lookahead-width windows.

    Because members are isolated within a window and delivery order is
    canonical, Par is byte-identical to Seq for fixed seeds, adaptive or
    not; the cross-check and qcheck property tests in
    [test/test_par.ml] enforce this.

    {!Sim.stop} is not honoured across windows — partitioned runs have
    no global stop line short of the target cycle. *)

module Sim := Sim

type t

type mode =
  | Seq  (** windowed, single OS thread — the reference schedule *)
  | Par  (** members spread over up to [domains] OCaml domains *)

val create :
  ?mode:mode -> ?adaptive:bool -> ?domains:int -> lookahead:int -> n:int ->
  unit -> t
(** [create ~mode ~adaptive ~lookahead ~n ()] makes [n] member
    simulators (accessible via {!sim}). [lookahead >= 1]; [n >= 1].
    Defaults: [Seq], non-adaptive. Member 0 is the {e counted}
    simulator: only its cycles feed {!Sim.total_cycles}, so a
    partitioned simulation reports its simulated time once.

    [domains] caps the OS domains used under [Par] (default [n], clamped
    to [1..n]). Each window's members are pulled in index order from a
    shared work-stealing queue, the coordinator stealing alongside the
    workers — so imbalanced partitions keep every domain fed and [n]
    may exceed the machine's core count. Results are byte-identical for
    every [domains] value. *)

val mode : t -> mode
val n_domains : t -> int

val domains_used : t -> int
(** OS domains a [Par] run will occupy (coordinator included). *)

val lookahead : t -> int

val sim : t -> int -> Sim.t
(** The member simulator for partition [i] (0-based). *)

val now : t -> int
(** Cycles completed by every member (the engine clock). *)

val post : t -> src:int -> dst:int -> time:int -> (unit -> unit) -> unit
(** Stage [fn] to run in the event phase of cycle [time] on member
    [dst]'s simulator. Must be called from member [src]'s execution (its
    staging queue is single-producer), or from the coordinating thread
    between runs. Raises [Invalid_argument] when [time] lands inside the
    poster's open window or under one lookahead of the poster's own
    clock — a lookahead violation. *)

val run_until : t -> int -> unit
(** Advance every member to the target cycle, window by window. *)

val run_for : t -> int -> unit

val current_partition : unit -> int option
(** The partition index the calling domain is currently executing, or
    [None] on a coordinating thread between windows. Partition-owned
    state (e.g. the cluster directory's replica caches) asserts against
    this to trip on cross-domain writes in debug builds. *)

val window_stats : t -> int * int * int
(** [(count, min_width, max_width)] over the engine's lifetime — the
    observability hook for the adaptive-window bound properties. *)

val barrier_stall_s : t -> float
(** Wall time the coordinator spent waiting on other members after
    finishing its own member's work (Par mode only; 0 under Seq). *)

val total_barrier_stall_s : unit -> float
(** Process-wide barrier stall across all instances (atomic), for the
    bench harness's perf record. *)

val total_windows : unit -> int
(** Windows run across all instances in the process (atomic) — lets the
    bench harness count an experiment's windows by differencing around
    a run. *)

val total_par_windows : unit -> int * int
(** [(windows, domain_windows)] across all instances in the process
    (atomic): the windows run under [Par], and the OS domains summed
    over those windows. Differenced around a run, their ratio is the
    number of domains its [Par] windows ran on. *)

val shutdown : t -> unit
(** Join the worker domains (Par mode). Idempotent; workers are
    respawned if the instance is run again. Leaked workers are parked in
    a condition wait and die with the process, so forgetting this wastes
    a thread, not correctness. *)
