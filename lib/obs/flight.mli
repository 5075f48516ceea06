(** Per-board fault flight recorder.

    A bounded ring of the most recent observability events (monitor
    admits/denies/drops, faults, health alarms). Recording is {b off by
    default} — every {!record} checks one flag first — so runs without
    introspection enabled are byte-identical to runs before the recorder
    existed. When a fault or a watchdog trip occurs, the ring is dumped
    as deterministic postmortem JSON: the last [capacity] events leading
    up to the failure, oldest first.

    Unlike {!Span}, which is process-global and unbounded-ish, a flight
    recorder is {e per board} (the kernel owns one) and strictly
    bounded, like the black box it models. *)

type entry = {
  ts : int;  (** cycle *)
  tile : int;
  cat : string;  (** layer: ["monitor"], ["health"], ... *)
  name : string;  (** event: ["admit"], ["deny"], ["fault"], ... *)
  corr : int;  (** RPC correlation id; [0] = uncorrelated *)
  args : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256 events. *)

val of_env : unit -> t
(** The ring every board kernel and the scheduler controller use: sized
    by [APIARY_FLIGHT_CAP] (default 256; values below 16 are rejected
    with a warning) and armed at creation when [APIARY_FLIGHT=1]. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val set_board : t -> int -> unit
(** Board id stamped into dumps ([-1] until set). *)

val board : t -> int

val record :
  t -> ts:int -> tile:int -> cat:string -> name:string -> ?corr:int ->
  ?args:(string * string) list -> unit -> unit
(** No-op unless enabled. *)

val entries : t -> entry list
(** Retained events, oldest first. *)

val capacity : t -> int

val total : t -> int
(** Events ever recorded (retained + overwritten). *)

val clear : t -> unit

val dump_json : t -> reason:string -> cycle:int -> string
(** Postmortem document:
    [{"board", "reason", "cycle", "capacity", "recorded", "events": [
      {"ts", "tile", "cat", "name", "corr"?, "args"?}, ...]}].
    Byte-stable for a fixed ring state. Strings are escaped with
    [Export.buf_add_json_string], like every other artifact. *)

val write_dump : t -> reason:string -> cycle:int -> string -> unit
(** [write_dump t ~reason ~cycle path] writes {!dump_json} to [path]. *)
