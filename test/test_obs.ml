(* Tests for the telemetry layer (lib/obs): the span recorder's
   enable/reset/capacity discipline, the metrics registry, the JSON
   exporters, and the end-to-end acceptance capture — one cross-board
   KV call reconstructing as a corr-keyed span tree that spans the
   caller, both boards and the ToR switch, with per-hop NoC children,
   exported byte-stably. *)

module Sim = Apiary_engine.Sim
module Par_sim = Apiary_engine.Par_sim
module Stats = Apiary_engine.Stats
module Span = Apiary_obs.Span
module Registry = Apiary_obs.Registry
module Export = Apiary_obs.Export
module Shell = Apiary_core.Shell
module Kv = Apiary_accel.Kv
module Cluster = Apiary_cluster.Cluster

(* The recorder and registry are process-global; every test leaves them
   disabled and empty. *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let with_spans f =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Span recorder *)

let test_span_disabled_is_noop () =
  Span.set_enabled false;
  Span.reset ();
  let sid = Span.start ~cat:"t" ~name:"x" ~track:0 ~ts:1 () in
  Span.instant ~cat:"t" ~name:"y" ~track:0 ~ts:2 ();
  Span.complete ~cat:"t" ~name:"z" ~track:0 ~ts:3 ~dur:4 ();
  Span.finish ~ts:9 sid;
  Alcotest.(check int) "nothing recorded" 0 (Span.count ());
  Alcotest.(check bool) "start returned null" true (sid = Span.null)

let test_span_start_finish () =
  with_spans (fun () ->
      let sid =
        Span.start ~board:2 ~corr:7
          ~args:[ ("k", "v") ]
          ~cat:"monitor" ~name:"rpc" ~track:3 ~ts:10 ()
      in
      Span.finish ~args:[ ("status", "ok") ] ~ts:25 sid;
      match Span.events () with
      | [ e ] ->
        Alcotest.(check int) "dur" 15 e.Span.dur;
        Alcotest.(check int) "board" 2 e.Span.board;
        Alcotest.(check int) "corr" 7 e.Span.corr;
        Alcotest.(check (list (pair string string)))
          "args appended"
          [ ("k", "v"); ("status", "ok") ]
          e.Span.args
      | l -> Alcotest.failf "want 1 event, got %d" (List.length l))

let test_span_open_until_finished () =
  with_spans (fun () ->
      let sid = Span.start ~cat:"c" ~name:"open" ~track:0 ~ts:5 () in
      (match Span.events () with
      | [ e ] -> Alcotest.(check int) "open dur is -1" (-1) e.Span.dur
      | l -> Alcotest.failf "want 1 event, got %d" (List.length l));
      (* Closing must still work after capture is turned off: late
         callbacks close spans opened while recording. *)
      Span.set_enabled false;
      Span.finish ~ts:11 sid;
      match Span.events () with
      | [ e ] -> Alcotest.(check int) "closed late" 6 e.Span.dur
      | l -> Alcotest.failf "want 1 event, got %d" (List.length l))

let test_span_reset_invalidates_ids () =
  with_spans (fun () ->
      let sid = Span.start ~cat:"c" ~name:"stale" ~track:0 ~ts:1 () in
      Span.reset ();
      Span.finish ~ts:50 sid;  (* must not touch the fresh store *)
      Alcotest.(check int) "store empty after reset" 0 (Span.count ());
      Span.instant ~cat:"c" ~name:"fresh" ~track:0 ~ts:2 ();
      match Span.events () with
      | [ e ] -> Alcotest.(check string) "fresh event intact" "fresh" e.Span.name
      | l -> Alcotest.failf "want 1 event, got %d" (List.length l))

let test_span_capacity_drops () =
  with_spans (fun () ->
      Fun.protect
        ~finally:(fun () -> Span.set_capacity 1_048_576)
        (fun () ->
          Span.set_capacity 4;
          for i = 1 to 6 do
            Span.instant ~cat:"c" ~name:"e" ~track:0 ~ts:i ()
          done;
          Alcotest.(check int) "retained at cap" 4 (Span.count ());
          Alcotest.(check int) "overflow counted" 2 (Span.dropped ())))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_get_or_create () =
  Registry.clear ();
  let c1 = Registry.counter "a.count" in
  Stats.Counter.incr c1;
  Alcotest.(check bool) "same instrument back" true
    (Registry.counter "a.count" == c1);
  Alcotest.(check int) "state survives" 1
    (Stats.Counter.value (Registry.counter "a.count"));
  (match Registry.gauge "a.count" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise");
  Registry.clear ()

let test_registry_sampler_replace () =
  Registry.clear ();
  let hits = ref 0 in
  Registry.add_sampler ~name:"s" (fun () -> hits := !hits + 100);
  Registry.add_sampler ~name:"s" (fun () -> incr hits);
  ignore (Registry.snapshot ());
  Alcotest.(check int) "only the replacement ran" 1 !hits;
  Registry.clear ()

let test_registry_reset_resets_gauges () =
  Registry.clear ();
  let g = Registry.gauge "g" in
  Stats.Gauge.set g 5.0;
  Stats.Gauge.set g 9.0;
  let h = Registry.histogram "h" in
  Stats.Histogram.record h 42;
  Registry.reset ();
  Alcotest.(check (float 0.0)) "gauge value zeroed" 0.0 (Stats.Gauge.value g);
  Alcotest.(check int) "histogram emptied" 0 (Stats.Histogram.count h);
  (* Gauge.reset must also forget the min/max watermarks. *)
  Stats.Gauge.set g 2.0;
  Alcotest.(check (float 0.0)) "min restarts" 2.0 (Stats.Gauge.min g);
  Alcotest.(check (float 0.0)) "max restarts" 2.0 (Stats.Gauge.max g);
  Registry.clear ()

let test_registry_snapshot_sorted () =
  Registry.clear ();
  ignore (Registry.counter "z");
  ignore (Registry.counter "a");
  ignore (Registry.gauge "m");
  let names = List.map fst (Registry.snapshot ()) in
  (* The built-in obs.span sampler contributes its three gauges even
     after clear; everything still comes back alphabetical. *)
  Alcotest.(check (list string)) "alphabetical"
    [
      "a"; "m"; "obs.span.dropped"; "obs.span.events"; "obs.span.sampled"; "z";
    ]
    names;
  Registry.clear ()

(* [snapshot_prefix] over generated scripts. Two prefixes, one a string
   prefix of the other's names ([p.] holds every [p.q.] name), take new
   counters, gauges and histograms, re-registrations of the instrument a
   name already holds, fresh instruments under existing names, samplers
   whose first run creates a gauge, and clears, interleaved with
   snapshots. The test keeps every binding and sampler it made in its
   own tables; each snapshot must run exactly that table's samplers
   under the prefix, in name order, and return its names under the
   prefix, sorted afresh, each bound to the very instrument the test
   holds. *)
type view_step =
  | V_new of int * int * int  (** prefix, kind (counter, gauge, histogram), index *)
  | V_same of int * int  (** re-register a prefix's name as it is bound *)
  | V_rebind of int * int  (** bind a fresh instrument of its kind to it *)
  | V_sampler of int * int  (** a sampler creating [<name>.v] when it runs *)
  | V_clear
  | V_snapshot of int

let view_prefixes = [| "p."; "p.q." |]

let view_step_gen =
  QCheck.Gen.(
    let p = int_range 0 1 and i = int_range 0 3 in
    frequency
      [
        (4, map3 (fun p k i -> V_new (p, k, i)) p (int_range 0 2) i);
        (2, map2 (fun p i -> V_same (p, i)) p (int_range 0 20));
        (2, map2 (fun p i -> V_rebind (p, i)) p (int_range 0 20));
        (2, map2 (fun p i -> V_sampler (p, i)) p i);
        (1, return V_clear);
        (4, map (fun p -> V_snapshot p) p);
      ])

let print_view_step = function
  | V_new (p, k, i) -> Printf.sprintf "new %d %d %d" p k i
  | V_same (p, i) -> Printf.sprintf "same %d %d" p i
  | V_rebind (p, i) -> Printf.sprintf "rebind %d %d" p i
  | V_sampler (p, i) -> Printf.sprintf "sampler %d %d" p i
  | V_clear -> "clear"
  | V_snapshot p -> Printf.sprintf "snapshot %d" p

let same_instrument a b =
  match (a, b) with
  | Registry.Counter x, Registry.Counter y -> x == y
  | Registry.Gauge x, Registry.Gauge y -> x == y
  | Registry.Histogram x, Registry.Histogram y -> x == y
  | _ -> false

let prop_registry_views =
  QCheck.Test.make ~name:"prefix snapshots match a fresh sort of the bindings"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_view_step)
       QCheck.Gen.(list_size (int_range 1 80) view_step_gen))
    (fun script ->
      Registry.clear ();
      let bound : (string, Registry.instrument) Hashtbl.t = Hashtbl.create 16 in
      let samplers : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let runs = ref [] in
      let under prefix tbl =
        Hashtbl.fold
          (fun name v acc ->
            if String.starts_with ~prefix name then (name, v) :: acc else acc)
          tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let nth_name p i =
        match under view_prefixes.(p) bound with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      let ok =
        List.for_all
          (fun step ->
            match step with
            | V_new (p, k, i) ->
              let name = Printf.sprintf "%s%c%d" view_prefixes.(p) "cgh".[k] i in
              Hashtbl.replace bound name
                (match k with
                | 0 -> Registry.Counter (Registry.counter name)
                | 1 -> Registry.Gauge (Registry.gauge name)
                | _ -> Registry.Histogram (Registry.histogram name));
              true
            | V_same (p, i) ->
              (match nth_name p i with
              | Some (name, inst) ->
                Registry.register name
                  (match inst with
                  | Registry.Counter c -> Registry.Counter c
                  | Registry.Gauge g -> Registry.Gauge g
                  | Registry.Histogram h -> Registry.Histogram h)
              | None -> ());
              true
            | V_rebind (p, i) ->
              (match nth_name p i with
              | Some (name, inst) ->
                let fresh =
                  match inst with
                  | Registry.Counter _ -> Registry.Counter (Stats.Counter.create name)
                  | Registry.Gauge _ -> Registry.Gauge (Stats.Gauge.create name)
                  | Registry.Histogram _ ->
                    Registry.Histogram (Stats.Histogram.create name)
                in
                Registry.register name fresh;
                Hashtbl.replace bound name fresh
              | None -> ());
              true
            | V_sampler (p, i) ->
              let name = Printf.sprintf "%ss%d" view_prefixes.(p) i in
              let gauge = name ^ ".v" in
              Hashtbl.replace samplers name ();
              Registry.add_sampler ~name (fun () ->
                  runs := name :: !runs;
                  Hashtbl.replace bound gauge (Registry.Gauge (Registry.gauge gauge)));
              true
            | V_clear ->
              Registry.clear ();
              Hashtbl.reset bound;
              Hashtbl.reset samplers;
              true
            | V_snapshot p ->
              runs := [];
              let got = Registry.snapshot_prefix view_prefixes.(p) in
              let want = under view_prefixes.(p) bound in
              List.rev !runs = List.map fst (under view_prefixes.(p) samplers)
              && List.length got = List.length want
              && List.for_all2
                   (fun (n1, i1) (n2, i2) -> n1 = n2 && same_instrument i1 i2)
                   got want)
          script
      in
      Registry.clear ();
      ok)

(* ------------------------------------------------------------------ *)
(* Export *)

let test_export_escapes_and_sorts () =
  with_spans (fun () ->
      Span.instant ~cat:"c" ~name:"later" ~track:0 ~ts:9 ();
      Span.instant
        ~args:[ ("msg", "a\"b\nc\\d") ]
        ~cat:"c" ~name:"earlier" ~track:0 ~ts:3 ();
      let s = Export.chrome_trace_string (Span.events ()) in
      let idx sub =
        let n = String.length sub in
        let rec go i =
          if i + n > String.length s then
            Alcotest.failf "missing %S in export" sub
          else if String.sub s i n = sub then i
          else go (i + 1)
        in
        go 0
      in
      Alcotest.(check bool) "sorted by ts" true
        (idx "\"earlier\"" < idx "\"later\"");
      ignore (idx "\"msg\":\"a\\\"b\\nc\\\\d\"");
      ignore (idx "\"traceEvents\""))

let test_export_byte_stable () =
  with_spans (fun () ->
      Span.complete ~board:1 ~corr:3 ~cat:"noc" ~name:"hop" ~track:2 ~ts:10
        ~dur:4 ();
      let evs = Span.events () in
      Alcotest.(check string) "same list renders identically"
        (Export.chrome_trace_string evs)
        (Export.chrome_trace_string evs))

(* A partitioned engine records different boards' same-cycle spans in
   whatever order its domains interleave; the export must not care. One
   board's spans, recorded by its own member, keep their order — even
   against name order. *)
let test_export_board_tie_order () =
  let capture order =
    with_spans (fun () ->
        List.iter
          (fun (board, name) ->
            Span.instant ~board ~cat:"c" ~name ~track:0 ~ts:5 ())
          order;
        Export.chrome_trace_string (Span.events ()))
  in
  let interleaved =
    capture [ (1, "y-first"); (0, "z-first"); (1, "x-second"); (0, "a-second") ]
  in
  let by_board =
    capture [ (0, "z-first"); (0, "a-second"); (1, "y-first"); (1, "x-second") ]
  in
  Alcotest.(check string) "recording interleave does not move a byte"
    by_board interleaved;
  let idx sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length interleaved then
        Alcotest.failf "missing %S in export" sub
      else if String.sub interleaved i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "board 0 before board 1, each in recording order"
    true
    (idx "z-first" < idx "a-second"
    && idx "a-second" < idx "y-first"
    && idx "y-first" < idx "x-second")

(* The tie rule over generated captures: the export is a stable sort of
   recording order by (ts, board), so recording order alone breaks ties
   within a board. Narrow ts and board ranges make ties common; the
   names are unique, so the export's name order is the event order. *)
let export_tie_gen =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (triple bool (int_range (-1) 2) (int_range 0 5)))

(* Event names in output order, from each {"name":"..." record head
   (metadata records included). *)
let names_in_order s =
  let key = "{\"name\":\"" in
  let kl = String.length key and len = String.length s in
  let rec at i j = j = kl || (s.[i + j] = key.[j] && at i (j + 1)) in
  let rec go i acc =
    if i + kl > len then List.rev acc
    else if at i 0 then
      let stop = String.index_from s (i + kl) '"' in
      go stop (String.sub s (i + kl) (stop - i - kl) :: acc)
    else go (i + 1) acc
  in
  go 0 []

let prop_export_tie_rule =
  QCheck.Test.make ~name:"stable (ts, board) order over recording order"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (triple bool int int))
       export_tie_gen)
    (fun evs ->
      let evs =
        List.mapi
          (fun i (mark, board, ts) -> (Printf.sprintf "n%d" i, mark, board, ts))
          evs
      in
      let out =
        with_spans (fun () ->
            List.iter
              (fun (name, mark, board, ts) ->
                if mark then Span.instant ~board ~cat:"c" ~name ~track:0 ~ts ()
                else
                  Span.complete ~board ~cat:"c" ~name ~track:0 ~ts ~dur:1 ())
              evs;
            Export.chrome_trace_string (Span.events ()))
      in
      let expected =
        List.stable_sort
          (fun (_, _, b1, t1) (_, _, b2, t2) -> compare (t1, b1) (t2, b2))
          evs
        |> List.map (fun (name, _, _, _) -> name)
      in
      List.filter (fun n -> n.[0] = 'n') (names_in_order out) = expected)

let test_export_empty_capture () =
  (* No spans at all is a legal capture: the export is still one valid,
     well-formed document with an empty event array and no truncation
     marker. *)
  let s = Export.chrome_trace_string [] in
  Alcotest.(check bool) "has traceEvents" true
    (contains s "\"traceEvents\"");
  Alcotest.(check bool) "no truncation marker" false
    (contains s "trace_truncated");
  Alcotest.(check string) "byte stable" s (Export.chrome_trace_string [])

let test_export_truncation_marker () =
  with_spans (fun () ->
      Span.instant ~cat:"c" ~name:"x" ~track:0 ~ts:1 ();
      let evs = Span.events () in
      (* dropped = 0 is a complete capture: stamping it as truncated
         would cry wolf on every artifact. *)
      Alcotest.(check bool) "absent when dropped = 0" false
        (contains (Export.chrome_trace_string ~dropped:0 evs)
           "trace_truncated");
      let s = Export.chrome_trace_string ~dropped:7 evs in
      Alcotest.(check bool) "present when dropped > 0" true
        (contains s "trace_truncated");
      Alcotest.(check bool) "carries the count" true
        (contains s "{\"dropped\":\"7\"}"))

let test_export_metrics_json () =
  Registry.clear ();
  Stats.Counter.add (Registry.counter "c") 3;
  Stats.Gauge.set (Registry.gauge "g") 1.5;
  Stats.Gauge.set (Registry.gauge "weird") Float.nan;
  ignore (Registry.histogram "h");  (* empty: max must render as 0 *)
  let s = Export.metrics_json_string (Registry.snapshot ()) in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    if not (go 0) then Alcotest.failf "missing %S in %s" sub s
  in
  has "\"c\":{\"type\":\"counter\",\"value\":3}";
  has "\"value\":1.5";
  has "\"count\":0";
  has "null";  (* NaN gauge must not emit invalid JSON *)
  Registry.clear ()

(* ------------------------------------------------------------------ *)
(* Acceptance: one cross-board KV call as a corr-keyed span tree *)

let run_call_capture () =
  Span.reset ();
  Span.set_enabled true;
  let eng = Cluster.engine ~boards:2 () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2 ~client_ports:1
  in
  ignore
    (Cluster.install cluster ~board:0 ~service:"kv" (fst (Kv.behavior ())));
  let ok = ref false in
  let caller =
    Shell.behavior "caller" ~on_boot:(fun sh ->
        Sim.after (Shell.sim sh) 2_000 (fun () ->
            Cluster.connect cluster ~board:1 sh ~service:"kv" (fun r ->
                match r with
                | Error _ -> ()
                | Ok target ->
                  Cluster.call cluster ~board:1 sh target ~op:Kv.Proto.opcode
                    (Kv.Proto.encode_req (Kv.Proto.Put ("k1", Bytes.make 32 'v')))
                    (fun r -> ok := Result.is_ok r))))
  in
  ignore (Cluster.install cluster ~board:1 caller);
  Par_sim.run_for eng 60_000;
  Span.set_enabled false;
  let evs = Span.events () in
  Span.reset ();
  (!ok, evs)

let test_cross_board_span_tree () =
  let ok, evs = run_call_capture () in
  Alcotest.(check bool) "call completed" true ok;
  let one ~board ~cat ~name =
    match
      List.filter
        (fun (e : Span.event) ->
          e.Span.board = board && e.Span.cat = cat && e.Span.name = name
          && e.Span.ts >= 2_000)
        evs
    with
    | [ e ] -> e
    | l ->
      Alcotest.failf "want 1 %s/%s on board %d, got %d" cat name board
        (List.length l)
  in
  (* Root: the caller's location-transparent invocation on board 1. *)
  let call = one ~board:1 ~cat:"cluster" ~name:"call" in
  Alcotest.(check (option string)) "call ok" (Some "ok")
    (List.assoc_opt "status" call.Span.args);
  (* Child: the netsvc leg, keyed by the caller's corr id; its req_id
     argument is the cross-board join key. *)
  let remote = one ~board:1 ~cat:"net" ~name:"remote" in
  Alcotest.(check bool) "remote corr-keyed" true (remote.Span.corr > 0);
  Alcotest.(check bool) "remote nested in call" true
    (call.Span.ts <= remote.Span.ts
    && remote.Span.ts + remote.Span.dur <= call.Span.ts + call.Span.dur);
  let req_id =
    match List.assoc_opt "req_id" remote.Span.args with
    | Some r -> r
    | None -> Alcotest.fail "remote span carries no req_id"
  in
  (* The same corr groups the caller-side monitor RPC and its per-hop
     NoC children on board 1. *)
  let by_corr cat =
    List.filter
      (fun (e : Span.event) ->
        e.Span.board = 1 && e.Span.cat = cat && e.Span.corr = remote.Span.corr)
      evs
  in
  Alcotest.(check bool) "caller monitor rpc under same corr" true
    (by_corr "monitor" <> []);
  Alcotest.(check bool) "per-hop NoC children under same corr" true
    (List.exists (fun (e : Span.event) -> e.Span.name = "hop") (by_corr "noc"));
  (* The wire hop: a rack-level (board -1) ToR switch span between the
     two boards. *)
  let tor =
    List.filter
      (fun (e : Span.event) ->
        e.Span.board = -1 && e.Span.cat = "switch" && e.Span.ts >= 2_000)
      evs
  in
  Alcotest.(check bool) "ToR switch span present" true (tor <> []);
  (* Far side: board 0 serves the same req_id, inside the remote leg's
     window, with its own fabric RPC and NoC hops. *)
  let serve = one ~board:0 ~cat:"net" ~name:"serve" in
  Alcotest.(check (option string)) "req_id joins the boards" (Some req_id)
    (List.assoc_opt "req_id" serve.Span.args);
  Alcotest.(check bool) "serve inside the remote window" true
    (remote.Span.ts <= serve.Span.ts
    && serve.Span.ts + serve.Span.dur <= remote.Span.ts + remote.Span.dur);
  let served_hops =
    List.filter
      (fun (e : Span.event) ->
        e.Span.board = 0 && e.Span.cat = "noc" && e.Span.name = "hop"
        && e.Span.corr > 0
        && e.Span.ts >= serve.Span.ts
        && e.Span.ts <= serve.Span.ts + serve.Span.dur)
      evs
  in
  Alcotest.(check bool) "serving board has per-hop NoC spans" true
    (served_hops <> [])

let test_capture_byte_stable_across_runs () =
  let _, evs1 = run_call_capture () in
  let _, evs2 = run_call_capture () in
  let s1 = Export.chrome_trace_string evs1 in
  let s2 = Export.chrome_trace_string evs2 in
  Alcotest.(check bool) "export is non-trivial" true (String.length s1 > 1000);
  Alcotest.(check string) "two fixed-seed captures export identically" s1 s2

(* ------------------------------------------------------------------ *)
(* Series: windowed rollups *)

module Series = Apiary_obs.Series
module Slo = Apiary_obs.Slo
module Critical_path = Apiary_obs.Critical_path

(* Random streams of (cycle-gap, value) samples against random window
   widths and ring capacities: nothing is ever lost — whatever the ring
   evicts folds into the evicted aggregate, so

     evicted + sum-of-ring + open = whole-run totals

   holds exactly for counts and sums, and the ring never exceeds its
   capacity. *)
let series_stream_gen =
  QCheck.Gen.(
    triple (int_range 1 50) (int_range 1 8)
      (list_size (int_range 0 200) (pair (int_range 0 30) (int_range 0 100))))

let prop_series_conservation =
  QCheck.Test.make ~name:"series conservation" ~count:200
    (QCheck.make series_stream_gen)
    (fun (window, capacity, stream) ->
      let s = Series.create ~capacity ~window () in
      let now = ref 0 in
      List.iter
        (fun (dt, v) ->
          now := !now + dt;
          Series.observe s ~now:!now "m" v)
        stream;
      let ring f = List.fold_left (fun a r -> a + f r) 0 (Series.rollups s "m") in
      let _, ec, _ = Series.evicted s "m" in
      let mid_run =
        Series.total_count s "m"
        = ec + ring (fun r -> r.Series.r_count) + Series.open_count s "m"
      in
      (* Close everything out: the open window empties and conservation
         must hold with sums too. *)
      Series.close_upto s (!now + window);
      let _, ec', es' = Series.evicted s "m" in
      mid_run
      && Series.open_count s "m" = 0
      && Series.total_count s "m" = ec' + ring (fun r -> r.Series.r_count)
      && Series.total_sum s "m" = es' + ring (fun r -> r.Series.r_sum)
      && List.length (Series.rollups s "m") <= capacity)

let test_series_grid_and_json () =
  let mk () =
    let s = Series.create ~capacity:4 ~window:100 () in
    List.iter
      (fun (now, v) -> Series.observe s ~now "lat" v)
      [ (10, 5); (20, 7); (150, 9); (430, 1); (900, 2); (901, 40) ];
    Series.close_upto s 1_000;
    s
  in
  let s = mk () in
  let rs = Series.rollups s "lat" in
  Alcotest.(check bool) "ring bounded" true (List.length rs <= 4);
  List.iter
    (fun (r : Series.rollup) ->
      Alcotest.(check int) "grid-aligned" 0 (r.Series.r_start mod 100))
    rs;
  (match rs with
  | a :: b :: _ ->
    Alcotest.(check int) "contiguous (empty windows included)" 100
      (b.Series.r_start - a.Series.r_start)
  | _ -> Alcotest.fail "expected several retained windows");
  let busy =
    List.find (fun (r : Series.rollup) -> r.Series.r_start = 900) rs
  in
  Alcotest.(check int) "window count" 2 busy.Series.r_count;
  Alcotest.(check int) "window sum" 42 busy.Series.r_sum;
  Alcotest.(check int) "window min" 2 busy.Series.r_min;
  Alcotest.(check int) "window max" 40 busy.Series.r_max;
  Alcotest.(check bool) "percentiles monotone" true
    (busy.Series.r_p50 <= busy.Series.r_p90
    && busy.Series.r_p90 <= busy.Series.r_p99
    && busy.Series.r_p99 <= busy.Series.r_p999);
  Alcotest.(check string) "json byte-stable" (Series.json_string (mk ()))
    (Series.json_string s)

(* ------------------------------------------------------------------ *)
(* Span sampling *)

let test_sampling_deterministic () =
  let capture () =
    with_spans (fun () ->
        Span.set_sampling ~head_mod:4 ~slow_cycles:500 ();
        Fun.protect
          ~finally:(fun () -> Span.set_sampling ())
          (fun () ->
            for c = 1 to 200 do
              let sid =
                Span.start ~corr:c ~cat:"t" ~name:"rpc" ~track:0 ~ts:(c * 10) ()
              in
              Span.finish ~ts:((c * 10) + (c mod 7)) sid
            done;
            ( Span.count (),
              Span.sampled (),
              Export.chrome_trace_string (Span.events ()) )))
  in
  let kept1, away1, s1 = capture () in
  let kept2, _, s2 = capture () in
  Alcotest.(check bool) "head sampling keeps a strict subset" true
    (kept1 > 0 && kept1 < 200);
  Alcotest.(check int) "kept + sampled = offered" 200 (kept1 + away1);
  Alcotest.(check int) "deterministic kept count" kept1 kept2;
  Alcotest.(check string) "byte-identical capture" s1 s2

(* With an astronomically sparse head (keep ~1 corr in 10^6), only the
   tail rules retain anything: slowness, an alarm-family name, or a
   non-ok status. *)
let test_sampling_tail_keep () =
  with_spans (fun () ->
      Span.set_sampling ~head_mod:1_000_003 ~slow_cycles:1_000 ();
      Fun.protect
        ~finally:(fun () -> Span.set_sampling ())
        (fun () ->
          Span.complete ~corr:5 ~cat:"t" ~name:"rpc" ~track:0 ~ts:10 ~dur:5 ();
          Alcotest.(check int) "fast ok span sampled away" 0 (Span.count ());
          Alcotest.(check int) "sampled counter ticks" 1 (Span.sampled ());
          Span.complete ~corr:5 ~cat:"t" ~name:"rpc" ~track:0 ~ts:20 ~dur:2_000
            ();
          Alcotest.(check int) "slow span tail-kept" 1 (Span.count ());
          Span.instant ~corr:5 ~cat:"mon" ~name:"timeout" ~track:0 ~ts:30 ();
          Alcotest.(check int) "alarm name tail-kept" 2 (Span.count ());
          Span.complete ~corr:5
            ~args:[ ("status", "err") ]
            ~cat:"t" ~name:"rpc" ~track:0 ~ts:40 ~dur:3 ();
          Alcotest.(check int) "error status tail-kept" 3 (Span.count ());
          (* A head-dropped open span parks until finish decides. *)
          let sid = Span.start ~corr:5 ~cat:"t" ~name:"rpc" ~track:0 ~ts:50 () in
          Alcotest.(check int) "open span parked, not recorded" 3 (Span.count ());
          Span.finish ~ts:2_000 sid;
          Alcotest.(check int) "parked span promoted when slow" 4 (Span.count ());
          Span.complete ~corr:0 ~cat:"t" ~name:"rpc" ~track:0 ~ts:60 ~dur:1 ();
          Alcotest.(check int) "uncorrelated spans always kept" 5 (Span.count ())))

(* The recorder against a reference model over generated scripts: head
   sampling, tail rules, the cap, per-board sinks, open spans finished
   late, twice, after a disable or across a reset. The model keeps its
   store as a plain list and learns each corr's head decision from the
   recorder itself (one non-tail instant per corr before the script),
   so it never restates the hash. After every step the recorder's
   events, counters and sink deliveries must equal the model's. *)
type span_step =
  | P_start of int * int * string * (string * string) list * int
      (** board, corr, name, args, ts *)
  | P_finish of int * (string * string) list * int
      (** handle (past the last one: null), args, ts *)
  | P_complete of int * int * string * (string * string) list * int * int
      (** board, corr, name, args, ts, dur *)
  | P_instant of int * int * string * (string * string) list * int
  | P_enable of bool
  | P_reset

let span_step_gen =
  QCheck.Gen.(
    let board = int_range (-1) 2
    and corr = int_range 0 20
    and name = oneofl [ "rpc"; "hop"; "fault"; "timeout" ]
    and args =
      oneofl [ []; [ ("status", "ok") ]; [ ("status", "err") ]; [ ("k", "v") ] ]
    and ts = int_range 0 100 in
    frequency
      [
        ( 4,
          map3
            (fun (b, c) (n, a) t -> P_start (b, c, n, a, t))
            (pair board corr) (pair name args) ts );
        (4, map3 (fun h a t -> P_finish (h, a, t)) (int_range 0 40) args ts);
        ( 3,
          map3
            (fun (b, c) (n, a) (t, d) -> P_complete (b, c, n, a, t, d))
            (pair board corr) (pair name args)
            (pair ts (int_range (-5) 100)) );
        ( 2,
          map3
            (fun (b, c) (n, a) t -> P_instant (b, c, n, a, t))
            (pair board corr) (pair name args) ts );
        (1, map (fun b -> P_enable b) bool);
        (1, return P_reset);
      ])

let print_span_step =
  let a l = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) in
  function
  | P_start (b, c, n, l, t) ->
    Printf.sprintf "start b%d c%d %s [%s] @%d" b c n (a l) t
  | P_finish (h, l, t) -> Printf.sprintf "finish h%d [%s] @%d" h (a l) t
  | P_complete (b, c, n, l, t, d) ->
    Printf.sprintf "complete b%d c%d %s [%s] @%d+%d" b c n (a l) t d
  | P_instant (b, c, n, l, t) ->
    Printf.sprintf "instant b%d c%d %s [%s] @%d" b c n (a l) t
  | P_enable b -> Printf.sprintf "enable %b" b
  | P_reset -> "reset"

(* A model handle: the span's own record, the reset epoch it was opened
   in, and whether it went to the store (else it is parked until
   finish, and [parked] says it has not been finished yet). *)
type model_handle =
  | M_null
  | M_open of {
      ev : Span.event;
      epoch : int;
      stored : bool;
      mutable parked : bool;
    }

let snap (e : Span.event) =
  (e.name, e.cat, e.corr, e.board, e.track, e.ts, e.dur, e.ph, e.args)

let prop_span_model =
  QCheck.Test.make ~name:"recorder matches a reference model" ~count:500
    (QCheck.make
       ~print:
         QCheck.Print.(
           pair (triple int int int) (list print_span_step))
       QCheck.Gen.(
         pair
           (triple (oneofl [ 1; 2; 8 ]) (oneofl [ max_int; 5; 50 ])
              (oneofl [ 3; 8; 1000 ]))
           (list_size (int_range 0 60) span_step_gen)))
    (fun ((head_mod, slow, cap), script) ->
      let delivered = [| ref []; ref [] |] in
      Fun.protect
        ~finally:(fun () ->
          Span.clear_sink ~board:0;
          Span.clear_sink ~board:1;
          Span.set_sampling ();
          Span.set_capacity 1_048_576;
          Span.set_enabled false)
        (fun () ->
          Span.set_sampling ~head_mod ~slow_cycles:slow ();
          Span.set_capacity cap;
          Span.set_enabled true;
          let head =
            Array.init 21 (fun corr ->
                Span.reset ();
                Span.instant ~corr ~cat:"probe" ~name:"rpc" ~track:0 ~ts:0 ();
                Span.count () = 1)
          in
          Span.reset ();
          Array.iteri
            (fun b r -> Span.set_sink ~board:b (fun e -> r := snap e :: !r))
            delivered;
          (* The model. *)
          let flag = ref true and epoch = ref 0 in
          let store = ref [] and dropped = ref 0 and sampled = ref 0 in
          let sunk = [| ref []; ref [] |] in
          let handles = ref [||] in
          let tail ~name ~dur args =
            dur >= slow || name = "fault" || name = "timeout"
            || (match List.assoc_opt "status" args with
               | Some s -> s <> "ok"
               | None -> false)
          in
          let push ev =
            if List.length !store >= cap then (incr dropped; false)
            else (store := !store @ [ ev ]; true)
          in
          let sink (ev : Span.event) =
            if ev.board = 0 || ev.board = 1 then
              sunk.(ev.board) := snap ev :: !(sunk.(ev.board))
          in
          let ev board corr name args ts dur ph : Span.event =
            { name; cat = "c"; corr; board; track = 0; ts; dur; ph; args }
          in
          let step = function
            | P_start (board, corr, name, args, ts) ->
              let id =
                Span.start ~board ~corr ~args ~cat:"c" ~name ~track:0 ~ts ()
              in
              let m =
                if not !flag then M_null
                else
                  let e = ev board corr name args ts (-1) Span.Dur in
                  let opened stored =
                    let parked = not stored in
                    M_open { ev = e; epoch = !epoch; stored; parked }
                  in
                  if not head.(corr) then opened false
                  else if push e then opened true
                  else M_null
              in
              handles := Array.append !handles [| (id, m) |]
            | P_finish (h, args, ts) -> (
              let n = Array.length !handles in
              let id, m =
                if h mod (n + 1) = n then (Span.null, M_null)
                else !handles.(h mod (n + 1))
              in
              Span.finish ~args ~ts id;
              match m with
              | M_null -> ()
              | M_open o when o.epoch <> !epoch -> ()
              | M_open ({ stored = true; _ } as o) ->
                if o.ev.dur < 0 then begin
                  o.ev.dur <- max 0 (ts - o.ev.ts);
                  o.ev.args <- o.ev.args @ args;
                  sink o.ev
                end
              | M_open o ->
                if o.parked then begin
                  o.parked <- false;
                  let dur = max 0 (ts - o.ev.ts) and all = o.ev.args @ args in
                  if tail ~name:o.ev.name ~dur all then begin
                    o.ev.dur <- dur;
                    o.ev.args <- all;
                    ignore (push o.ev);
                    sink o.ev
                  end
                  else incr sampled
                end)
            | P_complete (board, corr, name, args, ts, dur) ->
              Span.complete ~board ~corr ~args ~cat:"c" ~name ~track:0 ~ts ~dur
                ();
              if !flag then begin
                let dur = max 0 dur in
                if head.(corr) || tail ~name ~dur args then begin
                  let e = ev board corr name args ts dur Span.Dur in
                  ignore (push e);
                  sink e
                end
                else incr sampled
              end
            | P_instant (board, corr, name, args, ts) ->
              Span.instant ~board ~corr ~args ~cat:"c" ~name ~track:0 ~ts ();
              if !flag then
                if head.(corr) || tail ~name ~dur:0 args then
                  ignore (push (ev board corr name args ts 0 Span.Mark))
                else incr sampled
            | P_enable b ->
              Span.set_enabled b;
              flag := b
            | P_reset ->
              Span.reset ();
              incr epoch;
              store := [];
              dropped := 0;
              sampled := 0
          in
          List.for_all
            (fun s ->
              step s;
              List.map snap (Span.events ()) = List.map snap !store
              && Span.count () = List.length !store
              && Span.dropped () = !dropped
              && Span.sampled () = !sampled
              && !(delivered.(0)) = !(sunk.(0))
              && !(delivered.(1)) = !(sunk.(1)))
            script))

(* ------------------------------------------------------------------ *)
(* SLO burn-rate alerting *)

let mk_slo () =
  Slo.create
    (Slo.default_objective ~target_pct:99.0 ~window:100 ~fast_windows:2
       ~slow_windows:12 ~page_burn:8.0 ~ticket_burn:2.0 ~min_samples:5
       ~tenant:"t" ~latency_cycles:1_000 ())

(* 1000 good requests build up budget, then a total outage burns it:
   the fast-window page fires at the first window close with enough bad
   evidence, before cumulative attainment actually crosses 99%. *)
let test_slo_alert_leads_breach () =
  let s = mk_slo () in
  for w = 0 to 99 do
    for k = 0 to 9 do
      Slo.observe s ~now:((w * 100) + (k * 10)) ~good:true
    done
  done;
  for b = 0 to 19 do
    Slo.observe s ~now:(10_000 + (b * 20)) ~good:false
  done;
  let alert_at = Slo.first_alert_cycle s in
  let below_at = Slo.first_below_target s in
  Alcotest.(check (option int)) "page at the first post-outage close"
    (Some 10_100) alert_at;
  Alcotest.(check (option int)) "attainment crosses later" (Some 10_200)
    below_at;
  (match Slo.alerts s with
  | a :: _ ->
    Alcotest.(check bool) "severity is page" true (a.Slo.a_severity = Slo.Page)
  | [] -> Alcotest.fail "no alert");
  Alcotest.(check bool) "burn-rate alert leads the breach" true
    (match (alert_at, below_at) with
    | Some a, Some b -> a < b
    | _ -> false)

(* Alerts are edge-triggered: a second excursion pages again only after
   the fast horizon recovered below the threshold in between. *)
let test_slo_rearm () =
  let s = mk_slo () in
  let now = ref 0 in
  let feed ~per_window ~windows ~good =
    for _ = 1 to windows do
      for k = 0 to per_window - 1 do
        Slo.observe s ~now:(!now + (k * (100 / per_window))) ~good
      done;
      now := !now + 100
    done
  in
  feed ~per_window:10 ~windows:20 ~good:true;
  feed ~per_window:10 ~windows:3 ~good:false;
  let pages l =
    List.length (List.filter (fun a -> a.Slo.a_severity = Slo.Page) l)
  in
  Alcotest.(check int) "one page per excursion" 1 (pages (Slo.alerts s));
  feed ~per_window:10 ~windows:20 ~good:true;
  feed ~per_window:10 ~windows:3 ~good:false;
  Alcotest.(check int) "re-armed page on the second excursion" 2
    (pages (Slo.alerts s))

let test_slo_min_samples_guard () =
  let s = mk_slo () in
  (* Three bad requests in a near-idle window: under the guard, no
     alert, and attainment is not judged below target either. *)
  Slo.observe s ~now:10 ~good:false;
  Slo.observe s ~now:40 ~good:false;
  Slo.observe s ~now:70 ~good:false;
  Slo.check s ~now:1_000;
  Alcotest.(check int) "no alert under the traffic guard" 0
    (List.length (Slo.alerts s));
  Alcotest.(check (option int)) "not judged below target" None
    (Slo.first_below_target s)

(* ------------------------------------------------------------------ *)
(* Critical path on a sampled capture *)

let run_kv_calls_capture ~n =
  let eng = Cluster.engine ~boards:2 () in
  let cluster =
    Cluster.create ~engine:eng (Par_sim.sim eng 0) ~boards:2 ~client_ports:1
  in
  ignore
    (Cluster.install cluster ~board:0 ~service:"kv" (fst (Kv.behavior ())));
  let done_ = ref 0 in
  let caller =
    Shell.behavior "caller" ~on_boot:(fun sh ->
        Sim.after (Shell.sim sh) 2_000 (fun () ->
            Cluster.connect cluster ~board:1 sh ~service:"kv" (fun r ->
                match r with
                | Error _ -> ()
                | Ok target ->
                  let rec go i =
                    if i < n then
                      Cluster.call cluster ~board:1 sh target
                        ~op:Kv.Proto.opcode
                        (Kv.Proto.encode_req
                           (Kv.Proto.Put
                              (Printf.sprintf "k%d" i, Bytes.make 16 'v')))
                        (fun _ ->
                          incr done_;
                          go (i + 1))
                  in
                  go 0)))
  in
  ignore (Cluster.install cluster ~board:1 caller);
  Par_sim.run_for eng 400_000;
  (!done_, Span.events ())

(* Corr-keyed head sampling keeps or drops whole request families, so
   every breakdown computed from a sampled capture is well-formed and
   identical to the same family's breakdown in the unsampled capture. *)
let test_critical_path_sampled_wellformed () =
  let done_full, full = with_spans (fun () -> run_kv_calls_capture ~n:40) in
  Alcotest.(check int) "workload completed" 40 done_full;
  let _, sampled =
    with_spans (fun () ->
        Span.set_sampling ~head_mod:3 ();
        Fun.protect
          ~finally:(fun () -> Span.set_sampling ())
          (fun () -> run_kv_calls_capture ~n:40))
  in
  let bd_full = Critical_path.analyze full in
  let bd_sampled = Critical_path.analyze sampled in
  Alcotest.(check bool) "some request families survive" true (bd_sampled <> []);
  Alcotest.(check bool) "sampling thins the families" true
    (List.length bd_sampled < List.length bd_full);
  List.iter
    (fun (b : Critical_path.breakdown) ->
      if
        not
          (b.Critical_path.total >= 0
          && b.Critical_path.hop >= 0
          && b.Critical_path.queue >= 0
          && b.Critical_path.service >= 0
          && b.Critical_path.hop + b.Critical_path.queue
             + b.Critical_path.service
             = b.Critical_path.total)
      then Alcotest.failf "ill-formed breakdown for corr %d" b.Critical_path.corr;
      if not (List.mem b bd_full) then
        Alcotest.failf "sampled breakdown for corr %d differs from full capture"
          b.Critical_path.corr)
    bd_sampled

(* ------------------------------------------------------------------ *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "disabled is no-op" `Quick test_span_disabled_is_noop;
          Alcotest.test_case "start/finish" `Quick test_span_start_finish;
          Alcotest.test_case "open until finished" `Quick
            test_span_open_until_finished;
          Alcotest.test_case "reset invalidates ids" `Quick
            test_span_reset_invalidates_ids;
          Alcotest.test_case "capacity drops" `Quick test_span_capacity_drops;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get or create" `Quick test_registry_get_or_create;
          Alcotest.test_case "sampler replace" `Quick test_registry_sampler_replace;
          Alcotest.test_case "reset (incl. gauges)" `Quick
            test_registry_reset_resets_gauges;
          Alcotest.test_case "snapshot sorted" `Quick test_registry_snapshot_sorted;
          qc prop_registry_views;
        ] );
      ( "export",
        [
          Alcotest.test_case "escapes and sorts" `Quick test_export_escapes_and_sorts;
          Alcotest.test_case "byte stable" `Quick test_export_byte_stable;
          Alcotest.test_case "same-cycle ties by board" `Quick
            test_export_board_tie_order;
          qc prop_export_tie_rule;
          Alcotest.test_case "empty capture" `Quick test_export_empty_capture;
          Alcotest.test_case "truncation marker iff dropped" `Quick
            test_export_truncation_marker;
          Alcotest.test_case "metrics json" `Quick test_export_metrics_json;
        ] );
      ( "series",
        [
          qc prop_series_conservation;
          Alcotest.test_case "grid, rollups and json" `Quick
            test_series_grid_and_json;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "deterministic head sampling" `Quick
            test_sampling_deterministic;
          Alcotest.test_case "tail keep rules" `Quick test_sampling_tail_keep;
          qc prop_span_model;
        ] );
      ( "slo",
        [
          Alcotest.test_case "alert leads the breach" `Quick
            test_slo_alert_leads_breach;
          Alcotest.test_case "edge-trigger and re-arm" `Quick test_slo_rearm;
          Alcotest.test_case "min-samples guard" `Quick
            test_slo_min_samples_guard;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "cross-board span tree" `Quick
            test_cross_board_span_tree;
          Alcotest.test_case "capture byte-stable" `Quick
            test_capture_byte_stable_across_runs;
          Alcotest.test_case "critical path on a sampled tree" `Quick
            test_critical_path_sampled_wellformed;
        ] );
    ]
