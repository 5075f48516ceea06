(** Per-board fault flight recorder.

    A bounded ring of the most recent observability events (monitor
    admits/denies/drops, faults, health alarms). Recording is {b off by
    default} — every {!record} checks one flag first — so runs without
    introspection enabled are byte-identical to runs before the recorder
    existed. When a fault or a watchdog trip occurs, the ring is dumped
    as deterministic postmortem JSON: the last [capacity] events leading
    up to the failure, oldest first.

    Unlike {!Span}'s capture, which is process-global and unbounded-ish,
    a flight recorder is {e per board} (the kernel owns one) and
    strictly bounded, like the black box it models. Its events are
    {!Span.event}s: each a {!Span.Mark} on the ring's board, with the
    tile as its [track]. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256 events. *)

val of_env : unit -> t
(** The ring every board kernel and the scheduler controller use: the
    default 256 events, armed at creation when [APIARY_FLIGHT=1]. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val set_board : t -> int -> unit
(** Board id stamped into dumps ([-1] until set). *)

val board : t -> int

val record :
  t -> ts:int -> tile:int -> cat:string -> name:string -> ?corr:int ->
  ?args:(string * string) list -> unit -> unit
(** Record a {!Span.Mark} on the ring's {!board} with [tile] as its
    track ([cat] is the layer: ["monitor"], ["health"], ...; [name] the
    event: ["admit"], ["deny"], ["fault"], ...). No-op unless enabled. *)

val entries : t -> Span.event list
(** Retained events, oldest first. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded (retained + overwritten). *)

val dump_json : t -> reason:string -> cycle:int -> string
(** Postmortem document:
    [{"board", "reason", "cycle", "capacity", "recorded", "events": [
      {"ts", "tile", "cat", "name", "corr"?, "args"?}, ...]}], where
    ["tile"] is each event's track.
    Byte-stable for a fixed ring state. Strings are escaped with
    [Export.buf_add_json_string], like every other artifact. *)

val write_dump : t -> reason:string -> cycle:int -> string -> unit
(** [write_dump t ~reason ~cycle path] writes {!dump_json} to [path]. *)
