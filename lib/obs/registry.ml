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

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

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
        let v = mk () in
        v)

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

let register name i = with_lock (fun () -> Hashtbl.replace instruments name i)

let add_sampler ~name f = with_lock (fun () -> Hashtbl.replace samplers name f)

(* The bindings whose name starts with [prefix] (default: all), sorted by
   name. Filtering before the sort keeps a board's harvest proportional
   to its own names, not the rack's. *)
let sorted_bindings ?(prefix = "") tbl =
  Hashtbl.fold
    (fun k v acc ->
      if String.starts_with ~prefix k then (k, v) :: acc else acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sample () =
  let fns = with_lock (fun () -> sorted_bindings samplers) in
  List.iter (fun (_, f) -> f ()) fns

let snapshot () =
  sample ();
  with_lock (fun () -> sorted_bindings instruments)

(* Prefix-restricted views: a per-board telemetry agent harvesting
   [b<id>.*] must run only its own board's samplers — running them all
   would read other boards' component state from this domain, which a
   partitioned engine forbids mid-run. *)

let sample_prefix prefix =
  let fns = with_lock (fun () -> sorted_bindings ~prefix samplers) in
  List.iter (fun (_, f) -> f ()) fns

let snapshot_prefix prefix =
  sample_prefix prefix;
  with_lock (fun () -> sorted_bindings ~prefix instruments)

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | Counter c -> Stats.Counter.reset c
          | Gauge g -> Stats.Gauge.reset g
          | Histogram h -> Stats.Histogram.reset h)
        instruments)

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
      Hashtbl.reset instruments;
      Hashtbl.reset samplers);
  install_builtins ()

let () = install_builtins ()
