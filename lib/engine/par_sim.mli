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
    to [1..n]); [n] may exceed it and the machine's core count. Member
    [i] has a fixed {e home}: participant [i mod domains] runs it in
    every window, the calling domain being participant 0. A member that
    stays on one core does its window's work faster than one handed to
    whichever domain is free, and that outweighs the imbalance a fixed
    split leaves. Results are byte-identical for every [domains] value.

    Each window is handed off by atomics: a waiting participant spins
    for about half a millisecond (a constant count of
    [Domain.cpu_relax]), then parks on a condition variable. It spins
    only when the pool fits the host,
    [domains <= Domain.recommended_domain_count ()]: on an
    oversubscribed host a spinner burns the core that the domain it
    waits on needs, so there waiters park at once. *)

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
    state (e.g. the cluster directory's replicas) asserts against this
    to trip on cross-domain writes; no build profile of this workspace
    passes [-noassert], so the asserts run in every build. *)

val window_stats : t -> int * int * int
(** [(count, min_width, max_width)] over the engine's lifetime — the
    observability hook for the adaptive-window bound properties. *)

val barrier_stall_s : t -> float
(** Wall time the coordinator spent waiting on the other domains after
    finishing its own members' work, spinning included (Par mode only;
    0 under Seq). *)

val merge_s : t -> float
(** Wall time of the coordinator's serial section between windows:
    collecting staged posts, bounding the window and flushing pending
    posts into the members (Par mode only; 0 under Seq). *)

val total_barrier_stall_s : unit -> float
(** Process-wide barrier stall across all instances (atomic), for the
    bench harness's perf record. *)

val total_merge_s : unit -> float
(** Process-wide {!merge_s} across all instances (atomic). *)

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
    respawned, at the current window, if the instance is run again.
    Leaked workers end up parked in a condition wait and die with the
    process, so forgetting this wastes a thread, not correctness. *)
