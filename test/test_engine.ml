(* Unit and property tests for the simulation engine: heap ordering, RNG
   determinism and distributions, histogram accuracy, FIFO two-phase
   semantics, and simulator phase ordering. *)

module Heap = Apiary_engine.Heap
module Rng = Apiary_engine.Rng
module Stats = Apiary_engine.Stats
module Sim = Apiary_engine.Sim
module Fifo = Apiary_engine.Fifo

(* ------------------------------------------------------------------ *)
(* Heap *)

(* Every entry in pop order as (key, tie, value): read the top, then
   [drop] it. *)
let heap_drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let e = (Heap.top_key h, Heap.top_tie h, Heap.top h) in
      Heap.drop h;
      go (e :: acc)
    end
  in
  go []

(* Push each (key, tie) with the pair as its value. *)
let heap_of pairs =
  let h = Heap.create ~fill:(0, 0) in
  List.iter (fun (k, t) -> Heap.push h k t (k, t)) pairs;
  h

let test_heap_ordering () =
  let h = Heap.create ~fill:"" in
  List.iteri (fun i k -> Heap.push h k i (string_of_int k)) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list (triple int int string)))
    "sorted"
    [ (1, 1, "1"); (1, 3, "1"); (2, 6, "2"); (3, 4, "3"); (4, 2, "4"); (5, 0, "5");
      (9, 5, "9") ]
    (heap_drain h)

let test_heap_empty () =
  let h = Heap.create ~fill:0 in
  let reads =
    [
      ("top", fun () -> ignore (Heap.top h));
      ("top_key", fun () -> ignore (Heap.top_key h));
      ("top_tie", fun () -> ignore (Heap.top_tie h));
      ("drop", fun () -> Heap.drop h);
    ]
  in
  let all_raise when_ =
    List.iter
      (fun (name, f) ->
        Alcotest.check_raises (name ^ " raises " ^ when_)
          (Invalid_argument ("Heap." ^ name ^ ": empty heap")) f)
      reads
  in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  all_raise "when fresh";
  (* Emptied by draining, not only fresh. *)
  Heap.push h 3 0 3;
  Heap.drop h;
  Alcotest.(check int) "length" 0 (Heap.length h);
  all_raise "after drain"

(* The heap keeps no dropped value reachable: Sim's far queue holds
   event closures, which may capture large state. *)
let test_heap_drop_releases () =
  let h = Heap.create ~fill:(ref 0) in
  let w = Weak.create 2 in
  let[@inline never] push k =
    let v = ref k in
    Weak.set w k (Some v);
    Heap.push h k 0 v
  in
  push 0;
  push 1;
  Heap.drop h;
  Heap.drop h;
  Gc.full_major ();
  (* [h] is still live here, so only its slots could keep the values. *)
  Alcotest.(check int) "drained" 0 (Heap.length h);
  Alcotest.(check (list bool)) "both collected" [ false; false ]
    [ Weak.check w 0; Weak.check w 1 ]

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (pair int int))
    (fun l ->
      List.map (fun (k, t, _) -> (k, t)) (heap_drain (heap_of l))
      = List.sort compare l)

(* The top entry is the one [drop] removes, checked against a sorted
   list model: [top_key], [top_tie] and [top] read the model's head, and
   [drop] removes exactly one entry. *)
let prop_heap_top_drop_agree =
  QCheck.Test.make ~name:"top agrees with drop" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun l ->
      let h = heap_of l in
      let rec go = function
        | [] -> Heap.is_empty h
        | ((k, t) as x) :: rest ->
          Heap.top_key h = k
          && Heap.top_tie h = t
          && Heap.top h = x
          && begin
               Heap.drop h;
               Heap.length h = List.length rest && go rest
             end
      in
      go (List.sort compare l))

(* A bare binary heap is not stable, so its users break equal keys with
   a tie: a sequence number for Sim's far events, the packed (source,
   sequence) for Par_sim's posts. With the insertion index as tie, drain
   order over duplicate keys must equal a stable sort by key. *)
let prop_heap_seq_tiebreak_stable =
  QCheck.Test.make ~name:"seq tiebreak recovers insertion order on equal keys"
    ~count:200
    QCheck.(list (int_bound 8))
    (fun keys ->
      let h = Heap.create ~fill:0 in
      List.iteri (fun seq k -> Heap.push h k seq seq) keys;
      List.map (fun (_, _, seq) -> seq) (heap_drain h)
      = List.map snd
          (List.stable_sort
             (fun (k1, _) (k2, _) -> compare (k1 : int) k2)
             (List.mapi (fun seq k -> (k, seq)) keys)))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* The stream is part of every experiment's output: all tables and
   artifacts are pure functions of it. Pin its first draws for a few
   seeds so that a change to the generator's representation cannot
   silently change the numbers it returns. *)
type rng_pin = {
  seed : int;
  first : int64 list;  (* first 8 [bits64] *)
  ints : int list;  (* then 3 x [int 1000] *)
  big : int;  (* then [int max_int] *)
  floats : float list;  (* then 2 x [float] *)
  coins : bool list;  (* then 4 x [chance 0.5] *)
  child : int64 list;  (* then [split]: the child's first 2 [bits64] *)
  parent_next : int64;  (* the parent's next [bits64] after the split *)
  child_int : int;  (* the child's next [int 1000] *)
  child_float : float;  (* and [float] *)
}

let rng_pins =
  [
    {
      seed = 0;
      first =
        [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
          0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
          0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL ];
      ints = [ 299; 678; 297 ];
      big = 203549151766241014;
      floats = [ 0x1.0c43407fc177bp-1; 0x1.1c3eeaab30755p-1 ];
      coins = [ false; false; true; false ];
      child = [ 0x23A1AD94ADEEAA95L; 0x3EB242A64765AA10L ];
      parent_next = 0xD81A8D2B5A4485ACL;
      child_int = 564;
      child_float = 0x1.b661754f21d12p-2;
    };
    {
      seed = 1;
      first =
        [ 0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L;
          0xF440FE3B62C79D2CL; 0x33BA2F29E7C168BBL; 0x98843F48A94B7866L;
          0x74AD4C24D41A25F8L; 0x2F9A1F13648EAB6EL ];
      ints = [ 669; 148; 110 ];
      big = 620076382194796169;
      floats = [ 0x1.d875bb150b7f4p-1; 0x1.9d5862dd5f028p-3 ];
      coins = [ true; false; true; false ];
      child = [ 0x57BA030AAD89E5CFL; 0x3D0A3D29124F41ACL ];
      parent_next = 0x79BEEE45E1ECC24CL;
      child_int = 797;
      child_float = 0x1.15e2b4916cd5cp-3;
    };
    {
      seed = 7919;
      first =
        [ 0xF02C998F558B55F7L; 0x52667D049F930B5FL; 0xD52A644BD3C7A831L;
          0xA0C486C65202C939L; 0xC97A484F37D942C9L; 0xDE6984371716E05CL;
          0x8DA36FE23F02899CL; 0xD24B48B1F74BDD81L ];
      ints = [ 387; 60; 899 ];
      big = 550527529850448668;
      floats = [ 0x1.bbb74094fdecp-6; 0x1.f563b1a4c1a84p-3 ];
      coins = [ true; false; false; false ];
      child = [ 0x6BF0C35162D96152L; 0x878E3303D893C4EDL ];
      parent_next = 0x5827904FFAFB6503L;
      child_int = 653;
      child_float = 0x1.bd64d85dc9d07p-1;
    };
  ]

let test_rng_pinned_stream () =
  List.iter
    (fun p ->
      let r = Rng.create ~seed:p.seed in
      let name what = Printf.sprintf "seed %d %s" p.seed what in
      (* Draw in sequence: argument evaluation order is unspecified. *)
      let draw n f =
        let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
        go n []
      in
      Alcotest.(check (list int64)) (name "bits64") p.first
        (draw 8 (fun () -> Rng.bits64 r));
      Alcotest.(check (list int)) (name "int") p.ints
        (draw 3 (fun () -> Rng.int r 1000));
      Alcotest.(check int) (name "int max_int") p.big (Rng.int r max_int);
      Alcotest.(check (list (float 0.0))) (name "float") p.floats
        (draw 2 (fun () -> Rng.float r));
      Alcotest.(check (list bool)) (name "chance") p.coins
        (draw 4 (fun () -> Rng.chance r 0.5));
      let c = Rng.split r in
      Alcotest.(check (list int64)) (name "split child") p.child
        (draw 2 (fun () -> Rng.bits64 c));
      Alcotest.(check int64) (name "parent after split") p.parent_next
        (Rng.bits64 r);
      Alcotest.(check int) (name "child int") p.child_int (Rng.int c 1000);
      Alcotest.(check (float 0.0)) (name "child float") p.child_float
        (Rng.float c))
    rng_pins

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.bits64 a) in
  let ys = List.init 50 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let test_rng_float_unit () =
  let r = Rng.create ~seed:2 in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    if v < 0.0 || v >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_rng_uniformity () =
  let r = Rng.create ~seed:3 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.08 || frac > 0.12 then Alcotest.fail "non-uniform bucket")
    counts

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:4 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  if mean < 9.5 || mean > 10.5 then
    Alcotest.failf "exponential mean %.2f out of tolerance" mean

let test_rng_zipf_skew () =
  let r = Rng.create ~seed:5 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let i = Rng.zipf r ~n:100 ~theta:0.99 in
    counts.(i) <- counts.(i) + 1
  done;
  (* Key 0 must dominate the tail under heavy skew. *)
  Alcotest.(check bool) "head heavier than mid" true (counts.(0) > counts.(50) * 10)

let test_rng_zipf_uniform_degenerate () =
  let r = Rng.create ~seed:6 in
  for _ = 1 to 1000 do
    let v = Rng.zipf r ~n:10 ~theta:0.0 in
    if v < 0 || v >= 10 then Alcotest.fail "zipf out of range"
  done

let test_rng_compressible_bytes () =
  let r = Rng.create ~seed:7 in
  let redundant = Rng.bytes_compressible r 4096 ~redundancy:0.95 in
  let count_runs b =
    let runs = ref 1 in
    for i = 1 to Bytes.length b - 1 do
      if Bytes.get b i <> Bytes.get b (i - 1) then incr runs
    done;
    !runs
  in
  let random = Rng.bytes r 4096 in
  Alcotest.(check bool) "redundant has fewer runs" true
    (count_runs redundant * 4 < count_runs random)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_hist_exact_small () =
  let h = Stats.Histogram.create "t" in
  List.iter (Stats.Histogram.record h) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  Alcotest.(check int) "sum" 15 (Stats.Histogram.sum h);
  Alcotest.(check int) "p50" 3 (Stats.Histogram.percentile h 50.0);
  Alcotest.(check int) "max" 5 (Stats.Histogram.max_value h);
  Alcotest.(check int) "min" 1 (Stats.Histogram.min_value h)

let test_hist_percentile_accuracy () =
  let h = Stats.Histogram.create "t" in
  for v = 1 to 10_000 do
    Stats.Histogram.record h v
  done;
  let check_p p expected =
    let got = Stats.Histogram.percentile h p in
    let err = abs (got - expected) in
    if float_of_int err > 0.05 *. float_of_int expected then
      Alcotest.failf "p%.0f = %d, want ~%d" p got expected
  in
  check_p 50.0 5000;
  check_p 90.0 9000;
  check_p 99.0 9900

let test_hist_empty () =
  let h = Stats.Histogram.create "t" in
  Alcotest.(check int) "p99 of empty" 0 (Stats.Histogram.percentile h 99.0);
  Alcotest.(check (float 0.01)) "mean of empty" 0.0 (Stats.Histogram.mean h)

let test_hist_merge () =
  let a = Stats.Histogram.create "a" and b = Stats.Histogram.create "b" in
  List.iter (Stats.Histogram.record a) [ 1; 2; 3 ];
  List.iter (Stats.Histogram.record b) [ 100; 200 ];
  Stats.Histogram.merge_into ~src:b ~dst:a;
  Alcotest.(check int) "merged count" 5 (Stats.Histogram.count a);
  Alcotest.(check int) "merged max" 200 (Stats.Histogram.max_value a)

let prop_hist_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 100_000))
    (fun samples ->
      let h = Stats.Histogram.create "q" in
      List.iter (Stats.Histogram.record h) samples;
      let p25 = Stats.Histogram.percentile h 25.0 in
      let p50 = Stats.Histogram.percentile h 50.0 in
      let p99 = Stats.Histogram.percentile h 99.0 in
      p25 <= p50 && p50 <= p99)

let prop_hist_percentile_monotone_in_p =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (int_bound 100_000))
        (pair (int_bound 1000) (int_bound 1000)))
    (fun (samples, (pa, pb)) ->
      let h = Stats.Histogram.create "q" in
      List.iter (Stats.Histogram.record h) samples;
      (* percentiles in tenths of a percent, spanning 0.0 .. 100.0 *)
      let pa = float_of_int pa /. 10.0 and pb = float_of_int pb /. 10.0 in
      let lo = Float.min pa pb and hi = Float.max pa pb in
      Stats.Histogram.percentile h lo <= Stats.Histogram.percentile h hi)

let prop_hist_merge_conserves =
  QCheck.Test.make ~name:"merge_into conserves count and sum" ~count:200
    QCheck.(pair (list (int_bound 1_000_000)) (list (int_bound 1_000_000)))
    (fun (xs, ys) ->
      let a = Stats.Histogram.create "a" and b = Stats.Histogram.create "b" in
      List.iter (Stats.Histogram.record a) xs;
      List.iter (Stats.Histogram.record b) ys;
      let ca = Stats.Histogram.count a and cb = Stats.Histogram.count b in
      let sa = Stats.Histogram.sum a and sb = Stats.Histogram.sum b in
      Stats.Histogram.merge_into ~src:b ~dst:a;
      Stats.Histogram.count a = ca + cb
      && Stats.Histogram.sum a = sa + sb
      && Stats.Histogram.count b = cb
      && Stats.Histogram.sum b = sb)

let prop_hist_bounded_error =
  QCheck.Test.make ~name:"p50 within 5% of exact median" ~count:100
    QCheck.(list_of_size Gen.(int_range 10 500) (int_range 1 1_000_000))
    (fun samples ->
      let h = Stats.Histogram.create "q" in
      List.iter (Stats.Histogram.record h) samples;
      let sorted = List.sort compare samples in
      let exact = List.nth sorted ((List.length samples - 1) / 2) in
      let got = Stats.Histogram.percentile h 50.0 in
      abs (got - exact) <= max 2 (exact / 10))

(* ------------------------------------------------------------------ *)
(* Sim + Fifo *)

let test_sim_event_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 5 (fun () -> log := 5 :: !log);
  Sim.at sim 3 (fun () -> log := 3 :: !log);
  Sim.at sim 3 (fun () -> log := 33 :: !log);
  Sim.run_until sim 10;
  Alcotest.(check (list int)) "order" [ 3; 33; 5 ] (List.rev !log);
  Alcotest.(check int) "now" 10 (Sim.now sim)

let test_sim_after_zero_delay () =
  let sim = Sim.create () in
  let fired = ref (-1) in
  Sim.after sim 2 (fun () -> fired := Sim.now sim);
  Sim.run_for sim 5;
  Alcotest.(check int) "fired at 2" 2 !fired

let test_sim_every () =
  let sim = Sim.create () in
  let n = ref 0 in
  Sim.every sim 10 (fun () -> incr n);
  Sim.run_until sim 101;
  Alcotest.(check int) "ten firings" 10 !n

let test_sim_ticker_runs_each_cycle () =
  let sim = Sim.create () in
  let n = ref 0 in
  Sim.add_clocked sim (fun () ->
      incr n;
      Sim.Busy);
  Sim.run_for sim 17;
  Alcotest.(check int) "17 ticks" 17 !n

let test_sim_fast_forward () =
  let sim = Sim.create () in
  let hit = ref false in
  Sim.at sim 1_000_000 (fun () -> hit := true);
  Sim.run_until sim 2_000_000;
  Alcotest.(check bool) "event ran" true !hit;
  Alcotest.(check int) "time" 2_000_000 (Sim.now sim)

let test_sim_stop () =
  let sim = Sim.create () in
  Sim.add_clocked sim (fun () ->
      if Sim.now sim = 5 then Sim.stop sim;
      Sim.Busy);
  Sim.run_for sim 100;
  Alcotest.(check int) "stopped early" 6 (Sim.now sim)

let test_fifo_two_phase () =
  let sim = Sim.create () in
  let f = Fifo.create sim in
  Alcotest.(check bool) "push ok" true (Fifo.push f 1);
  (* Not yet visible: commit happens at end of cycle. *)
  Alcotest.(check (option int)) "invisible same cycle" None (Fifo.pop f);
  Sim.step sim;
  Alcotest.(check (option int)) "visible next cycle" (Some 1) (Fifo.pop f)

let test_fifo_capacity_counts_staged () =
  let sim = Sim.create () in
  let f = Fifo.create ~capacity:2 sim in
  Alcotest.(check bool) "1 ok" true (Fifo.push f 1);
  Alcotest.(check bool) "2 ok" true (Fifo.push f 2);
  Alcotest.(check bool) "3 rejected" false (Fifo.push f 3);
  Sim.step sim;
  Alcotest.(check bool) "still full" true (Fifo.is_full f);
  ignore (Fifo.pop f);
  Alcotest.(check bool) "room again" true (Fifo.push f 3)

let test_fifo_order () =
  let sim = Sim.create () in
  let f = Fifo.create sim in
  List.iter (fun x -> ignore (Fifo.push f x)) [ 1; 2; 3 ];
  Sim.step sim;
  let drain () =
    let rec go acc = match Fifo.pop f with None -> List.rev acc | Some x -> go (x :: acc) in
    go []
  in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (drain ())

let test_fifo_clear () =
  let sim = Sim.create () in
  let f = Fifo.create sim in
  ignore (Fifo.push f 1);
  Sim.step sim;
  ignore (Fifo.push f 2);
  Fifo.clear f;
  Sim.step sim;
  Alcotest.(check int) "empty after clear" 0 (Fifo.length f)

let prop_heap_time_seq_order =
  (* Far events are ordered by time, then sequence: ties on time must
     pop in insertion order. With seq = insertion index the pairs are distinct,
     so a lexicographic sort is the unique correct drain order. *)
  QCheck.Test.make ~name:"heap pops (time, seq) in order" ~count:300
    QCheck.(list small_nat)
    (fun times ->
      let h = heap_of (List.mapi (fun seq t -> (t, seq)) times) in
      let popped = List.map (fun (_, _, v) -> v) (heap_drain h) in
      popped = List.sort compare popped && List.length popped = List.length times)

type fifo_op = FPush of int | FPop | FCommit

let fifo_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun x -> FPush x) small_nat); (2, return FPop); (1, return FCommit) ])

let prop_fifo_model =
  (* Model-based check of two-phase semantics against a pair of lists:
     pushes land in [staged] (bounded by capacity over both lists), pops
     see only [committed], and Sim.step moves staged behind committed. *)
  QCheck.Test.make ~name:"fifo matches two-phase list model" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 6) (list_size (int_range 0 40) fifo_op_gen)))
    (fun (cap, ops) ->
      let sim = Sim.create () in
      let f = Fifo.create ~capacity:cap sim in
      let committed = ref [] and staged = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | FPush x ->
            let accepted = Fifo.push f x in
            let fits = List.length !committed + List.length !staged < cap in
            if accepted <> fits then ok := false;
            if accepted then staged := !staged @ [ x ]
          | FPop ->
            let want =
              match !committed with
              | [] -> None
              | x :: rest ->
                committed := rest;
                Some x
            in
            if Fifo.pop f <> want then ok := false
          | FCommit ->
            Sim.step sim;
            committed := !committed @ !staged;
            staged := [])
        ops;
      !ok
      && Fifo.length f = List.length !committed
      && Fifo.occupancy f = List.length !committed + List.length !staged
      && Fifo.peek f = (match !committed with [] -> None | x :: _ -> Some x))

let prop_fast_forward_equiv =
  (* Fast-forward must be invisible: a run with idle gaps (no tickers, so
     the sim is quiescent between events) produces the same event order,
     observed times and final clock as the same schedule forced to step
     every cycle by an always-Busy ticker. *)
  QCheck.Test.make ~name:"idle fast-forward matches naive stepping" ~count:100
    QCheck.(list (int_bound 200))
    (fun times ->
      let run ~naive =
        let sim = Sim.create () in
        let log = ref [] in
        if naive then Sim.add_clocked sim (fun () -> Sim.Busy);
        List.iteri
          (fun i t -> Sim.at sim t (fun () -> log := (Sim.now sim, i) :: !log))
          times;
        Sim.run_until sim 250;
        (List.rev !log, Sim.now sim)
      in
      run ~naive:false = run ~naive:true)

(* Reference model of the event queue. Every [Sim.at]/[Sim.after] call
   gets the (time, seq) its documented rules give it: [seq] counts calls,
   and a current-cycle target from a ticker moves to the next cycle.
   Each event, when it runs, must be the model's least pending key at its
   own time. Events come from setup, from event callbacks (delay 0
   included), from a ticker with random [Idle_until] wakes and from the
   gaps between [run_until] chunks of random length. Delays cluster at
   multiples of 512 up to four of them, past any bucketed queue's
   horizon, so that far events, the exact horizon and migration after a
   fast-forward all occur. At every chunk boundary [pending_events] and
   [next_activity] must match the model. *)
module Key_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let prop_event_queue_model =
  QCheck.Test.make ~name:"event queue runs the reference (time, seq) order"
    ~count:200 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let rand n = Random.State.int st n in
      let delay () =
        match rand 6 with
        | 0 -> 0
        | 1 -> rand 8
        | 2 -> rand 64
        | 3 -> (512 * (1 + rand 4)) - 3 + rand 7
        | _ -> rand 2200
      in
      let sim = Sim.create () in
      let pending = ref Key_set.empty in
      let next_seq = ref 0 in
      let budget = ref (100 + rand 400) in
      let ok = ref true in
      let rec schedule ~from_tick =
        if !budget > 0 then begin
          decr budget;
          let d = delay () in
          let now = Sim.now sim in
          let time = if from_tick && d = 0 then now + 1 else now + d in
          let key = (time, !next_seq) in
          incr next_seq;
          pending := Key_set.add key !pending;
          let fire () =
            (match Key_set.min_elt_opt !pending with
            | Some k when k = key && Sim.now sim = time ->
              pending := Key_set.remove key !pending
            | _ -> ok := false);
            for _ = 1 to rand 3 do
              schedule ~from_tick:false
            done
          in
          if Random.State.bool st then Sim.at sim (now + d) fire
          else Sim.after sim d fire
        end
      in
      let ticked = ref false and ticker_wake = ref max_int in
      Sim.add_clocked sim (fun () ->
          ticked := true;
          for _ = 1 to rand 3 do
            schedule ~from_tick:true
          done;
          let gap =
            match rand 3 with 0 -> rand 4 | 1 -> rand 100 | _ -> rand 1500
          in
          let w = Sim.now sim + 1 + gap in
          ticker_wake := w;
          Sim.Idle_until w);
      for _ = 1 to rand 20 do
        schedule ~from_tick:false
      done;
      let boundary () =
        let now = Sim.now sim in
        let next_event =
          match Key_set.min_elt_opt !pending with
          | Some (time, _) -> time
          | None -> max_int
        in
        let expect_next =
          if not !ticked then now else max now (min next_event !ticker_wake)
        in
        if next_event < now then ok := false;
        if Sim.pending_events sim <> Key_set.cardinal !pending then ok := false;
        if Sim.next_activity sim <> expect_next then ok := false
      in
      let chunk len =
        Sim.run_until sim (Sim.now sim + len);
        boundary ();
        for _ = 1 to rand 4 do
          schedule ~from_tick:false
        done;
        boundary ()
      in
      boundary ();
      for _ = 1 to 4 + rand 12 do
        chunk (match rand 4 with 0 -> rand 2 | 1 -> rand 600 | _ -> rand 3000)
      done;
      budget := 0;
      let rounds = ref 0 in
      while !ok && (not (Key_set.is_empty !pending)) && !rounds < 50 do
        incr rounds;
        chunk 2500
      done;
      !ok && Key_set.is_empty !pending && Sim.pending_events sim = 0)

(* An event that raises propagates out of [run_until] with the rest of
   its cycle still pending; the next [run_until] runs each of those
   once, in order, and then the later cycles, near and far. *)
let test_sim_raising_event_resumes () =
  let sim = Sim.create () in
  let log = ref [] in
  let ev name = fun () -> log := name :: !log in
  Sim.at sim 5 (ev "a");
  Sim.at sim 5 (fun () ->
      log := "boom" :: !log;
      failwith "boom");
  Sim.at sim 5 (ev "b");
  Sim.at sim 5 (ev "c");
  Sim.at sim 6 (ev "d");
  Sim.at sim 700 (ev "e");
  Alcotest.check_raises "raises out of run_until" (Failure "boom") (fun () ->
      Sim.run_until sim 1000);
  Alcotest.(check (list string)) "stopped at the raise" [ "a"; "boom" ]
    (List.rev !log);
  Alcotest.(check int) "clock stays in the cycle" 5 (Sim.now sim);
  Alcotest.(check int) "rest still pending" 4 (Sim.pending_events sim);
  Alcotest.(check int) "next activity is this cycle" 5 (Sim.next_activity sim);
  Sim.run_until sim 1000;
  Alcotest.(check (list string)) "each remaining event once, in order"
    [ "a"; "boom"; "b"; "c"; "d"; "e" ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Sim.pending_events sim);
  Alcotest.(check int) "reached the target" 1000 (Sim.now sim)

(* The same when the raising event is its cycle's last: nothing of the
   cycle is left, and the next cycle's event still runs once. *)
let test_sim_raising_last_event_resumes () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 5 (fun () -> log := 5 :: !log);
  Sim.at sim 5 (fun () -> failwith "last");
  Sim.at sim 6 (fun () -> log := 6 :: !log);
  Sim.at sim 9 (fun () -> log := 9 :: !log);
  Alcotest.check_raises "raises" (Failure "last") (fun () -> Sim.run_until sim 20);
  Alcotest.(check int) "later events pending" 2 (Sim.pending_events sim);
  Sim.run_until sim 20;
  Alcotest.(check (list int)) "later cycles run once" [ 5; 6; 9 ] (List.rev !log);
  Alcotest.(check int) "drained" 0 (Sim.pending_events sim)

let test_sim_at_now_in_tick_defers () =
  (* Scheduling for the current cycle from the tick phase cannot fire this
     cycle (the event phase already ran), so it lands on the next one. *)
  let sim = Sim.create () in
  let fired = ref (-1) in
  let armed = ref false in
  Sim.add_clocked sim (fun () ->
      if (Sim.now sim = 3 && not !armed) then begin
        armed := true;
        Sim.at sim 3 (fun () -> fired := Sim.now sim)
      end;
      Sim.Busy);
  Sim.run_for sim 10;
  Alcotest.(check int) "deferred to next cycle" 4 !fired

let test_sim_after_zero_in_event_phase () =
  (* From the event phase the current cycle is still open: delay 0 fires
     within the same cycle. *)
  let sim = Sim.create () in
  let fired = ref (-1) in
  Sim.at sim 2 (fun () -> Sim.after sim 0 (fun () -> fired := Sim.now sim));
  Sim.run_for sim 5;
  Alcotest.(check int) "same cycle" 2 !fired

let test_sim_idle_until_cadence () =
  let sim = Sim.create () in
  let runs = ref 0 in
  Sim.add_clocked sim (fun () ->
      incr runs;
      Sim.Idle_until (Sim.now sim + 5));
  Sim.run_for sim 100;
  (* Ticks at 0, 5, 10, ..., 95; the gaps are fast-forwarded. *)
  Alcotest.(check int) "one tick per wake" 20 !runs;
  Alcotest.(check int) "gaps skipped" 80 (Sim.cycles_skipped sim)

let test_sim_rearm_reruns_idle_ticker () =
  let sim = Sim.create () in
  let runs = ref 0 in
  let h =
    Sim.add_clocked_h sim (fun () ->
        incr runs;
        Sim.Idle)
  in
  Sim.run_for sim 10;
  Alcotest.(check int) "quiesced after first tick" 1 !runs;
  Sim.rearm sim h;
  Sim.run_for sim 5;
  Alcotest.(check int) "woken ticker ran again" 2 !runs

let test_fifo_push_wakes_quiescent_sim () =
  (* External mutation between runs must not be lost to fast-forward: a
     staged push re-arms the commit machinery even when the sim had gone
     fully quiescent. *)
  let sim = Sim.create () in
  let f = Fifo.create sim in
  Sim.run_for sim 10;
  Alcotest.(check bool) "push accepted" true (Fifo.push f 7);
  Sim.run_for sim 1;
  Alcotest.(check (option int)) "committed on next run" (Some 7) (Fifo.pop f)

(* ------------------------------------------------------------------ *)
(* Activity-set scheduler: handles, regions, re-arm timing. *)

let test_sim_rearm_handle () =
  let sim = Sim.create () in
  let runs = ref 0 in
  let h =
    Sim.add_clocked_h sim ~name:"t" (fun () ->
        incr runs;
        Sim.Idle)
  in
  Sim.run_for sim 10;
  Alcotest.(check int) "parked after first tick" 1 !runs;
  Sim.rearm sim h;
  Sim.run_for sim 5;
  Alcotest.(check int) "re-armed ticker ran once more" 2 !runs;
  (* no_handle is a safe sink for ownerless re-arms *)
  Sim.rearm sim Sim.no_handle;
  Sim.run_for sim 5;
  Alcotest.(check int) "no_handle wakes nothing" 2 !runs

(* A group's aggregate activity (a mesh column's, say) is the count of
   its armed handles: it must follow registration, parking and re-arms. *)
let test_sim_region_activity () =
  let sim = Sim.create () in
  let runs = ref 0 in
  let tick () =
    incr runs;
    Sim.Idle
  in
  let hs =
    [ Sim.add_clocked_h sim ~name:"a" tick; Sim.add_clocked_h sim ~name:"b" tick ]
  in
  let active () = List.length (List.filter (Sim.armed sim) hs) in
  Alcotest.(check int) "armed at registration" 2 (active ());
  Sim.run_for sim 5;
  Alcotest.(check int) "both ticked once" 2 !runs;
  Alcotest.(check int) "group quiet after parking" 0 (active ());
  Alcotest.(check bool) "no_handle is never armed" false
    (Sim.armed sim Sim.no_handle);
  List.iter (Sim.rearm sim) hs;
  Alcotest.(check int) "group re-armed" 2 (active ());
  Sim.run_for sim 5;
  Alcotest.(check int) "both ticked again" 4 !runs

let test_sim_tick_counts () =
  let sim = Sim.create () in
  Sim.add_clocked sim (fun () -> Sim.Idle_until (Sim.now sim + 5));
  Sim.run_for sim 100;
  let active, skipped = Sim.tick_counts sim in
  Alcotest.(check int) "active ticks" 20 active;
  Alcotest.(check int) "skipped ticks" 80 skipped

let test_sim_late_registration_tick_counts () =
  (* A ticker registered mid-run must not be charged for cycles that
     predate it. *)
  let sim = Sim.create () in
  Sim.run_for sim 50;
  Sim.add_clocked sim (fun () -> Sim.Busy);
  Sim.run_for sim 10;
  let active, skipped = Sim.tick_counts sim in
  Alcotest.(check int) "only its own cycles" 10 active;
  Alcotest.(check int) "no phantom skips" 0 skipped

(* Satellite property: activity hints are pure scheduling. A consumer
   that drains a FIFO and reports random Idle/Idle_until/Busy hints must
   observe byte-identical deliveries to an always-Busy consumer — the
   owner re-arm (commit wake) overrides any hint the instant work
   lands. *)
let prop_activity_hints_identical_delivery =
  QCheck.Test.make
    ~name:"random Idle/Idle_until hints match all-Busy delivery" ~count:150
    QCheck.(
      pair (list (pair (int_bound 150) (int_bound 100))) (int_bound 10_000))
    (fun (pushes, seed) ->
      let run ~hints =
        let sim = Sim.create () in
        let f = Fifo.create sim in
        let log = ref [] in
        let rng = Rng.create ~seed in
        List.iter
          (fun (t, v) -> Sim.at sim t (fun () -> ignore (Fifo.push f v)))
          pushes;
        let tick () =
          let rec drain () =
            match Fifo.pop f with
            | Some v ->
              log := (Sim.now sim, v) :: !log;
              drain ()
            | None -> ()
          in
          drain ();
          if not hints then Sim.Busy
          else
            match Rng.int rng 3 with
            | 0 -> Sim.Idle
            | 1 -> Sim.Busy
            | _ -> Sim.Idle_until (Sim.now sim + 1 + Rng.int rng 40)
        in
        let h = Sim.add_clocked_h sim ~name:"consumer" tick in
        Fifo.set_owner f h;
        Sim.run_until sim 300;
        List.rev !log
      in
      run ~hints:false = run ~hints:true)

(* Reference model of the activity set: the flat per-cycle loop. Each
   cycle it arms the due [Idle_until] wakes, runs the cycle's events,
   then visits every ticker index in ascending order and calls a ticker
   only if it is armed, then runs the commit phase. A re-arm aimed ahead
   of the visiting index therefore runs this cycle and one aimed behind
   it next cycle; a ticker that re-arms itself stays armed whatever it
   reports. What a ticker does at a cycle is a pure function of (seed,
   cycle, index), so the simulator and the model draw the same
   decisions for as long as their call logs agree. Up to 150 tickers
   span five words of any 32-bit bitset. Each tick reports [Busy],
   [Idle] or [Idle_until] up to 3 cycles in the past or 8 ahead,
   re-arms 0-2 tickers (ahead of itself, behind itself or itself), and
   may schedule an event or a commit-phase callback that re-arms one;
   more re-arms arrive between the uneven [run_until] chunks. The call
   logs must match, and [Sim.armed]/[Sim.active_tickers] at every chunk
   boundary. *)
type act_event = { ev_target : int; ev_dirty : int option }

type act_decision = {
  act : Sim.activity;
  rearms : int list;
  event : (int * act_event) option;  (* delay, event *)
  dirty : int option;
}

let prop_activity_set_model =
  QCheck.Test.make ~name:"activity set runs the flat per-cycle loop" ~count:300
    QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let rand n = Random.State.int st n in
      let n = 1 + rand 150 in
      let busy_pct = rand 50 and rearm_pct = rand 100 in
      let hash c i k =
        let h = ((((seed * 31) + c) * 1_000_003) + i) * 8191 + k in
        let h = (h lxor (h lsr 31)) * 0x7FEB352D in
        let h = (h lxor (h lsr 29)) * 0x846CA68B in
        (h lxor (h lsr 32)) land max_int
      in
      let draw c i k bound = hash c i k mod bound in
      let target c i k =
        match draw c i k 3 with
        | 0 when i + 1 < n -> i + 1 + draw c i (k + 1) (n - i - 1)
        | 1 when i > 0 -> draw c i (k + 1) i
        | _ -> i
      in
      let decide c i =
        let act =
          if draw c i 0 100 < busy_pct then Sim.Busy
          else if draw c i 1 2 = 0 then Sim.Idle
          else Sim.Idle_until (c - 3 + draw c i 2 12)
        in
        let n_rearms = if draw c i 3 100 < rearm_pct then draw c i 4 3 else 0 in
        let rearms = List.init n_rearms (fun k -> target c i (10 + (2 * k))) in
        let event =
          if draw c i 5 6 > 0 then None
          else
            let ev_dirty =
              if draw c i 8 3 = 0 then Some (draw c i 9 n) else None
            in
            Some (1 + draw c i 6 12, { ev_target = draw c i 7 n; ev_dirty })
        in
        let dirty = if draw c i 20 6 = 0 then Some (draw c i 21 n) else None in
        { act; rearms; event; dirty }
      in
      (* The simulator. *)
      let sim = Sim.create () in
      let hs = Array.make n Sim.no_handle in
      let log = ref [] in
      let rearm_dirty j = Sim.mark_dirty sim (fun () -> Sim.rearm sim hs.(j)) in
      let fire ev () =
        Sim.rearm sim hs.(ev.ev_target);
        Option.iter rearm_dirty ev.ev_dirty
      in
      for i = 0 to n - 1 do
        hs.(i) <-
          Sim.add_clocked_h sim (fun () ->
              let c = Sim.now sim in
              log := (c, i) :: !log;
              let d = decide c i in
              List.iter (fun j -> Sim.rearm sim hs.(j)) d.rearms;
              Option.iter
                (fun (delay, ev) -> Sim.after sim delay (fire ev))
                d.event;
              Option.iter rearm_dirty d.dirty;
              d.act)
      done;
      (* The flat loop. *)
      let armed = Array.make n true and wake = Array.make n max_int in
      let events = Hashtbl.create 16 and dirty = ref [] in
      let clock = ref 0 and mlog = ref [] in
      let arm j =
        if not armed.(j) then begin
          armed.(j) <- true;
          wake.(j) <- max_int
        end
      in
      let add_event time ev =
        Hashtbl.replace events time
          (ev :: Option.value ~default:[] (Hashtbl.find_opt events time))
      in
      let cycle c =
        for j = 0 to n - 1 do
          if (not armed.(j)) && wake.(j) <= c then arm j
        done;
        List.iter
          (fun ev ->
            arm ev.ev_target;
            Option.iter (fun j -> dirty := j :: !dirty) ev.ev_dirty)
          (Option.value ~default:[] (Hashtbl.find_opt events c));
        Hashtbl.remove events c;
        for i = 0 to n - 1 do
          if armed.(i) then begin
            mlog := (c, i) :: !mlog;
            let d = decide c i in
            let self = List.mem i d.rearms in
            List.iter arm d.rearms;
            Option.iter (fun (delay, ev) -> add_event (c + delay) ev) d.event;
            Option.iter (fun j -> dirty := j :: !dirty) d.dirty;
            if not self then
              match d.act with
              | Sim.Busy -> ()
              | Sim.Idle -> armed.(i) <- false
              | Sim.Idle_until w ->
                armed.(i) <- false;
                wake.(i) <- w
          end
        done;
        List.iter arm !dirty;
        dirty := []
      in
      (* Setup events, then chunks with external re-arms between them. *)
      for _ = 1 to rand 20 do
        let time = rand 400 and ev = { ev_target = rand n; ev_dirty = None } in
        Sim.at sim time (fire ev);
        add_event time ev
      done;
      let ok = ref true in
      let boundary () =
        let count = ref 0 in
        Array.iteri
          (fun i a ->
            if a then incr count;
            if Sim.armed sim hs.(i) <> a then ok := false)
          armed;
        if Sim.active_tickers sim <> !count then ok := false
      in
      boundary ();
      for _ = 1 to 4 + rand 12 do
        let len =
          match rand 4 with 0 -> rand 2 | 1 -> rand 10 | 2 -> rand 40 | _ -> rand 100
        in
        let target = Sim.now sim + len in
        Sim.run_until sim target;
        while !clock < target do
          cycle !clock;
          incr clock
        done;
        boundary ();
        for _ = 1 to rand 3 do
          let j = rand n in
          Sim.rearm sim hs.(j);
          arm j
        done;
        if rand 3 = 0 then begin
          let j = rand n in
          rearm_dirty j;
          dirty := j :: !dirty
        end;
        if rand 2 = 0 then begin
          let time = !clock + rand 50 in
          let ev = { ev_target = rand n; ev_dirty = None } in
          Sim.at sim time (fire ev);
          add_event time ev
        end;
        boundary ()
      done;
      !ok && !log = !mlog)

let test_series () =
  let s = Stats.Series.create "t" ~interval:100 in
  Stats.Series.record s ~now:5 1.0;
  Stats.Series.record s ~now:50 2.0;
  Stats.Series.record s ~now:150 4.0;
  Alcotest.(check (list (pair int (float 0.001))))
    "buckets" [ (0, 3.0); (100, 4.0) ] (Stats.Series.buckets s)


let test_sim_every_with_start () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.every sim ~start:25 10 (fun () -> fired := Sim.now sim :: !fired);
  Sim.run_until sim 60;
  Alcotest.(check (list int)) "start honoured" [ 25; 35; 45; 55 ] (List.rev !fired)

let test_sim_at_past_rejected () =
  let sim = Sim.create () in
  Sim.run_for sim 10;
  Alcotest.check_raises "past" (Invalid_argument "Sim.at: time 5 not schedulable at cycle 10")
    (fun () -> Sim.at sim 5 (fun () -> ()))

let test_checksum_crc32_incremental_differs () =
  (* Every call starts from the standard initial value, so a prefix's
     CRC is not the whole buffer's. *)
  let a = Bytes.of_string "hello " in
  let whole = Apiary_engine.Checksum.crc32 (Bytes.of_string "hello world") in
  let part = Apiary_engine.Checksum.crc32 a in
  Alcotest.(check bool) "parts differ from whole" true
    (part <> whole)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "engine"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "drop releases values" `Quick test_heap_drop_releases;
          qc prop_heap_sorts;
          qc prop_heap_top_drop_agree;
          qc prop_heap_seq_tiebreak_stable;
          qc prop_heap_time_seq_order;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float unit" `Quick test_rng_float_unit;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "zipf theta=0" `Quick test_rng_zipf_uniform_degenerate;
          Alcotest.test_case "compressible bytes" `Quick test_rng_compressible_bytes;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact small" `Quick test_hist_exact_small;
          Alcotest.test_case "percentile accuracy" `Quick test_hist_percentile_accuracy;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          qc prop_hist_percentile_monotone;
          qc prop_hist_percentile_monotone_in_p;
          qc prop_hist_merge_conserves;
          qc prop_hist_bounded_error;
        ] );
      ( "sim",
        [
          Alcotest.test_case "event order" `Quick test_sim_event_order;
          Alcotest.test_case "after" `Quick test_sim_after_zero_delay;
          Alcotest.test_case "every" `Quick test_sim_every;
          Alcotest.test_case "ticker each cycle" `Quick test_sim_ticker_runs_each_cycle;
          Alcotest.test_case "fast forward" `Quick test_sim_fast_forward;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "at-now in tick defers" `Quick test_sim_at_now_in_tick_defers;
          Alcotest.test_case "after-zero in event phase" `Quick
            test_sim_after_zero_in_event_phase;
          Alcotest.test_case "idle-until cadence" `Quick test_sim_idle_until_cadence;
          Alcotest.test_case "rearm reruns idle ticker" `Quick
            test_sim_rearm_reruns_idle_ticker;
          Alcotest.test_case "raising event resumes" `Quick
            test_sim_raising_event_resumes;
          Alcotest.test_case "raising last event resumes" `Quick
            test_sim_raising_last_event_resumes;
          qc prop_fast_forward_equiv;
          qc prop_event_queue_model;
        ] );
      ( "sim_extra",
        [
          Alcotest.test_case "every ~start" `Quick test_sim_every_with_start;
          Alcotest.test_case "at past rejected" `Quick test_sim_at_past_rejected;
          Alcotest.test_case "crc32 init" `Quick test_checksum_crc32_incremental_differs;
        ] );
      ( "activity",
        [
          Alcotest.test_case "rearm handle" `Quick test_sim_rearm_handle;
          Alcotest.test_case "region aggregate" `Quick test_sim_region_activity;
          Alcotest.test_case "tick counts" `Quick test_sim_tick_counts;
          Alcotest.test_case "late registration" `Quick
            test_sim_late_registration_tick_counts;
          qc prop_activity_hints_identical_delivery;
          qc prop_activity_set_model;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "two phase" `Quick test_fifo_two_phase;
          Alcotest.test_case "capacity counts staged" `Quick test_fifo_capacity_counts_staged;
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "clear" `Quick test_fifo_clear;
          Alcotest.test_case "push wakes quiescent sim" `Quick
            test_fifo_push_wakes_quiescent_sim;
          qc prop_fifo_model;
        ] );
      ("series", [ Alcotest.test_case "buckets" `Quick test_series ]);
    ]
