(** The board health layer: the board's one hang detector, a deadline
    over the monitors' progress heartbeats, plus NoC congestion alarms.

    A periodic in-fabric check (an event, so it fires across quiescence
    fast-forward) sweeps every tile. A tile is stuck when it has queued
    work — rx backlog or committed egress — but has made no progress
    ({!Monitor.last_progress}) for longer than the deadline: a hung or
    livelocked accelerator. An idle tile never trips, however long it
    sleeps, so the quiescence engine's skipped cycles cannot cause false
    positives. A router trips the congestion alarm when its input
    occupancy stays at or above 32 flits for 3 consecutive checks.

    Each check also pulses the [Perf.heartbeats] slot of every tile's
    counter block, making the sweep itself visible through the stat
    service. Alarms are edge-triggered (one per episode), recorded into
    the board's flight recorder, and delivered to subscribers. The layer
    only reports: what a stuck tile costs is a subscriber's policy —
    fail-stopping it with {!Monitor.fault}, or pushing the alarm to the
    rack scheduler over the board's telemetry agent. *)

val period : int
(** 200 cycles between sweeps. *)

val stuck_deadline : int
(** 2,000: a tile with queued work and no progress for more than this
    many cycles is declared stuck. Every sweep (the scheduler's, one
    per board, and [apiary top]'s) uses these two values. *)

type alarm =
  | Stuck_tile of { tile : int; stalled_for : int }
  | Congested_router of { tile : int; occ : int }

val alarm_to_string : alarm -> string

type t

val create : Kernel.t -> t
(** Install the periodic sweep on the kernel's simulator. *)

val on_alarm : t -> (alarm -> unit) -> unit

val alarms : t -> (int * alarm) list
(** All alarms so far as [(cycle, alarm)], oldest first. *)

val checks : t -> int
(** Number of sweeps executed. *)
