(* CI perf-regression guard.

     perf_guard.exe BENCH_baseline.json BENCH_perf.json

   Fails (exit 1) when any experiment present in both files has a
   [cycles_per_s] below [0.7 * APIARY_PERF_FACTOR] of its baseline.
   APIARY_PERF_FACTOR (default 1.0) discounts the baseline for slower
   machines — CI runners set it well below 1 so only real regressions,
   not hardware variance, trip the guard. Entries with [sim_cycles = 0]
   are skipped (sub-second experiments whose rate is pure noise), as are
   experiments present in only one file.

   A second, machine-independent check guards the activity-set
   scheduler: [active_ticks] (ticker invocations actually executed) is a
   deterministic function of the workload, so when baseline and current
   ran the same [sim_cycles] the current count may not exceed the
   baseline by more than 10% + 1000 calls. A regression here means
   tickers stopped parking (idle-skipping broke) even if the wall-clock
   guard still passes on a fast runner. Skipped, with a line saying
   why, when either side lacks the field (old baselines) or the cycle
   counts differ (resized runs).

   A third, also machine-independent, check guards allocation: at equal
   [sim_cycles], [alloc_words] (OCaml words allocated by all domains
   while the experiment ran) may not exceed 1.10 x baseline + 262,144
   words, one minor heap, which is the counter's resolution. Skipped
   under the same conditions as the activity check.

   The parser handles exactly the format bench_util.write_perf_json
   emits — one record per line — not general JSON; both inputs come
   from our own harness. *)

type rec_t = {
  id : string;
  sim_cycles : int;
  cycles_per_s : float;
  active_ticks : int option;
  alloc_words : float option;
}

let field_str line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  match String.index_opt line '{' with
  | None -> None
  | Some _ -> (
    let plen = String.length pat in
    let rec find i =
      if i + plen > String.length line then None
      else if String.sub line i plen = pat then
        let start = i + plen in
        String.index_from_opt line start '"'
        |> Option.map (fun e -> String.sub line start (e - start))
      else find (i + 1)
    in
    find 0)

let field_num line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let plen = String.length pat in
  let rec find i =
    if i + plen > String.length line then None
    else if String.sub line i plen = pat then begin
      let start = i + plen in
      let j = ref start in
      while
        !j < String.length line
        && (match line.[!j] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr j
      done;
      float_of_string_opt (String.sub line start (!j - start))
    end
    else find (i + 1)
  in
  find 0

let parse path =
  let ic = open_in path in
  let out = ref [] in
  (try
     while true do
       let line = input_line ic in
       match field_str line "id" with
       | None -> ()
       | Some id ->
         let sim_cycles =
           int_of_float (Option.value ~default:0.0 (field_num line "sim_cycles"))
         in
         let cycles_per_s =
           Option.value ~default:0.0 (field_num line "cycles_per_s")
         in
         let active_ticks =
           Option.map int_of_float (field_num line "active_ticks")
         in
         let alloc_words = field_num line "alloc_words" in
         out :=
           { id; sim_cycles; cycles_per_s; active_ticks; alloc_words } :: !out
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !out

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
      prerr_endline "usage: perf_guard.exe BENCH_baseline.json BENCH_perf.json";
      exit 2
  in
  let factor =
    match Sys.getenv_opt "APIARY_PERF_FACTOR" with
    | Some s -> (try float_of_string s with _ -> 1.0)
    | None -> 1.0
  in
  let threshold = 0.7 *. factor in
  let baseline = parse baseline_path in
  let current = parse current_path in
  let failures = ref 0 in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.id = b.id) current with
      | None -> Printf.printf "perf-guard: %-6s not in current run, skipped\n" b.id
      | Some _ when b.sim_cycles = 0 ->
        Printf.printf "perf-guard: %-6s baseline has no simulated cycles, skipped\n"
          b.id
      | Some c when c.sim_cycles = 0 ->
        Printf.printf "perf-guard: %-6s current run has no simulated cycles, skipped\n"
          b.id
      | Some c ->
        let floor = threshold *. b.cycles_per_s in
        let verdict = if c.cycles_per_s >= floor then "ok" else "REGRESSION" in
        Printf.printf
          "perf-guard: %-6s %s  baseline %.2e cyc/s, current %.2e, floor %.2e (x%.2f)\n"
          b.id verdict b.cycles_per_s c.cycles_per_s floor threshold;
        if c.cycles_per_s < floor then incr failures;
        (* The deterministic checks compare counts over the same
           simulated span; say so when one cannot run. *)
        let skipped what why =
          Printf.printf "perf-guard: %-6s %s check skipped: %s\n" b.id what why
        in
        let comparable what ~baseline ~current =
          if b.sim_cycles <> c.sim_cycles then begin
            skipped what
              (Printf.sprintf "sim_cycles differ (baseline %d, current %d)"
                 b.sim_cycles c.sim_cycles);
            None
          end
          else
            match (baseline, current) with
            | Some ba, Some ca -> Some (ba, ca)
            | None, _ ->
              skipped what "baseline has no count";
              None
            | _, None ->
              skipped what "current run has no count";
              None
        in
        (* Deterministic activity guard: same simulated span must not
           execute meaningfully more ticker calls than the baseline. *)
        (match
           comparable "activity" ~baseline:b.active_ticks ~current:c.active_ticks
         with
        | Some (ba, ca) ->
          let cap = ba + (ba / 10) + 1000 in
          if ca > cap then begin
            Printf.printf
              "perf-guard: %-6s ACTIVITY REGRESSION  baseline %d active ticks, \
               current %d (cap %d)\n"
              b.id ba ca cap;
            incr failures
          end
          else
            Printf.printf
              "perf-guard: %-6s activity ok  baseline %d active ticks, current \
               %d (cap %d)\n"
              b.id ba ca cap
        | None -> ());
        (* Deterministic allocation guard, same skip rules. *)
        match comparable "alloc" ~baseline:b.alloc_words ~current:c.alloc_words with
        | Some (ba, ca) ->
          let cap = (1.10 *. ba) +. 262_144.0 in
          let ok = ca <= cap in
          Printf.printf
            "perf-guard: %-6s %s  baseline %.0f allocated words, current %.0f \
             (cap %.0f)\n"
            b.id
            (if ok then "alloc ok" else "ALLOC REGRESSION")
            ba ca cap;
          if not ok then incr failures
        | None -> ())
    baseline;
  if !failures > 0 then begin
    Printf.printf
      "perf-guard: %d check(s) failed (rate floor x%.2f, activity and \
       allocation caps)\n"
      !failures threshold;
    exit 1
  end
  else print_endline "perf-guard: no regressions"
