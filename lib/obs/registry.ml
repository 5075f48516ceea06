module Stats = Apiary_engine.Stats

type instrument =
  | Counter of Stats.Counter.t
  | Gauge of Stats.Gauge.t
  | Histogram of Stats.Histogram.t

(* Process-global; guarded for safety when parallel sweeps attach, though
   deterministic snapshots (like span capture) want a single domain. *)
let lock = Mutex.create ()
let instruments : (string, instrument) Hashtbl.t = Hashtbl.create 64
let samplers : (string, unit -> unit) Hashtbl.t = Hashtbl.create 16

(* Bumped whenever a name gets a new binding (a new name, another
   instrument under an old one, any sampler install) and on [clear]:
   a per-prefix view built at the current generation is still exact. *)
let generation = ref 0

(* Per-prefix sorted views, each tagged with the generation it was
   built at. Agents on different domains harvest through these, so
   they are read and rebuilt under [lock] like the tables. *)
let sampler_views : (string, int * (string * (unit -> unit)) list) Hashtbl.t =
  Hashtbl.create 8

let instrument_views : (string, int * (string * instrument) list) Hashtbl.t =
  Hashtbl.create 8

(* [reset]s so far, read by agents without the lock. *)
let reset_count = Atomic.make 0
let with_lock f = Mutex.protect lock f

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let get_or_create name mk match_ =
  with_lock (fun () ->
      match Hashtbl.find_opt instruments name with
      | Some i -> (
        match match_ i with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Obs registry: %s is a %s" name (kind_name i)))
      | None ->
        incr generation;
        mk ())

let counter name =
  get_or_create name
    (fun () ->
      let c = Stats.Counter.create name in
      Hashtbl.replace instruments name (Counter c);
      c)
    (function Counter c -> Some c | _ -> None)

let gauge name =
  get_or_create name
    (fun () ->
      let g = Stats.Gauge.create name in
      Hashtbl.replace instruments name (Gauge g);
      g)
    (function Gauge g -> Some g | _ -> None)

let histogram name =
  get_or_create name
    (fun () ->
      let h = Stats.Histogram.create name in
      Hashtbl.replace instruments name (Histogram h);
      h)
    (function Histogram h -> Some h | _ -> None)

let same_instrument a b =
  match (a, b) with
  | Counter x, Counter y -> x == y
  | Gauge x, Gauge y -> x == y
  | Histogram x, Histogram y -> x == y
  | _ -> false

(* Re-binding the instrument a name already holds changes no view. *)
let register name i =
  with_lock (fun () ->
      match Hashtbl.find_opt instruments name with
      | Some old when same_instrument old i -> ()
      | _ ->
        incr generation;
        Hashtbl.replace instruments name i)

let add_sampler ~name f =
  with_lock (fun () ->
      incr generation;
      Hashtbl.replace samplers name f)

(* The bindings whose name starts with [prefix] ("" for all), sorted by
   name. Filtering before the sort keeps a board's harvest proportional
   to its own names, not the rack's. *)
let sorted_bindings prefix tbl =
  Hashtbl.fold
    (fun k v acc ->
      if String.starts_with ~prefix k then (k, v) :: acc else acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* [prefix]'s view of [tbl]: the cached one while no binding changed
   since it was built, else a fresh fold and sort. *)
let view views tbl prefix =
  with_lock (fun () ->
      match Hashtbl.find_opt views prefix with
      | Some (gen, l) when gen = !generation -> l
      | _ ->
        let l = sorted_bindings prefix tbl in
        Hashtbl.replace views prefix (!generation, l);
        l)

(* Prefix-restricted views: a per-board telemetry agent harvesting
   [b<id>.*] must run only its own board's samplers — running them all
   would read other boards' component state from this domain, which a
   partitioned engine forbids mid-run. *)

let sample_prefix prefix =
  List.iter (fun (_, f) -> f ()) (view sampler_views samplers prefix)

(* The samplers may bind new names, so the instrument view is looked up
   after they ran. *)
let snapshot_prefix prefix =
  sample_prefix prefix;
  view instrument_views instruments prefix

let sample () = sample_prefix ""
let snapshot () = snapshot_prefix ""

let reset () =
  with_lock (fun () ->
      Atomic.incr reset_count;
      Hashtbl.iter
        (fun _ i ->
          match i with
          | Counter c -> Stats.Counter.reset c
          | Gauge g -> Stats.Gauge.reset g
          | Histogram h -> Stats.Histogram.reset h)
        instruments)

let resets () = Atomic.get reset_count

(* ------------------------------------------------------------------ *)
(* Built-in samplers.

   [obs.span.*] makes trace truncation detectable from the metrics dump
   alone: a nonzero [obs.span.dropped] means the Chrome-trace export is
   missing events. [prof.*] folds the APIARY_PROF per-ticker wall-time
   rows into the same pipeline, so --perf and --obs share one metrics
   surface; with APIARY_PROF unset the sampler publishes nothing, which
   keeps obs metric dumps byte-stable. Built-ins are re-installed by
   {!clear}, so they survive between unrelated runs like the registry
   itself does. *)

module Profile = Apiary_engine.Profile

let install_builtins () =
  add_sampler ~name:"obs.span" (fun () ->
      Stats.Gauge.set (gauge "obs.span.events") (float_of_int (Span.count ()));
      Stats.Gauge.set (gauge "obs.span.dropped")
        (float_of_int (Span.dropped ()));
      Stats.Gauge.set (gauge "obs.span.sampled")
        (float_of_int (Span.sampled ())));
  add_sampler ~name:"obs.prof" (fun () ->
      if Profile.enabled () then
        List.iter
          (fun (name, calls, skipped, seconds) ->
            Stats.Gauge.set
              (gauge (Printf.sprintf "prof.%s.calls" name))
              (float_of_int calls);
            Stats.Gauge.set
              (gauge (Printf.sprintf "prof.%s.skipped" name))
              (float_of_int skipped);
            Stats.Gauge.set (gauge (Printf.sprintf "prof.%s.seconds" name)) seconds)
          (Profile.snapshot ()))

let clear () =
  with_lock (fun () ->
      incr generation;
      Hashtbl.reset instruments;
      Hashtbl.reset samplers;
      Hashtbl.reset sampler_views;
      Hashtbl.reset instrument_views);
  install_builtins ()

let () = install_builtins ()
