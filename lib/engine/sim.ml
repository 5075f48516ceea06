type activity = Busy | Idle | Idle_until of int

type handle = int

let no_handle = -1

(* A clocked component under the activity-set scheduler. A parked
   ticker carries its pending [Idle_until] wake in [wake] ([max_int] =
   none, as for every armed ticker), which doubles as the staleness
   check for lazy deletion from the wake heap. *)
type ticker = {
  fn : unit -> activity;
  row : Profile.row option;
  reg_clock : int;  (* first cycle this ticker was eligible to run *)
  mutable wake : int;
}

(* The event queue is a timing wheel plus a far queue.

   The wheel has [wheel_slots] one-cycle slots. Slot [time land
   wheel_mask] holds the closures of the events due at [time], in the
   order they were scheduled. The wheel covers the cycles before
   [horizon], which each executed cycle sets to its own cycle plus
   [wheel_slots], so the near events span fewer than [wheel_slots]
   cycles and no two cycles share a slot. An event at or past the
   horizon waits in the far queue, a (time, seq) [Heap] with its closure
   as the value.

   Why each cycle still runs its events in exact (time, seq) order:
   - The horizon grows only at the start of an executed cycle, and that
     step ([migrate]) first moves every far event the new horizon covers
     into its slot, in (time, seq) order. So far events always lie at or
     past the horizon.
   - A push goes to the wheel only when its time is before the horizon.
     The far events for that cycle have all moved in by then, and they
     were scheduled earlier, so the push lands after them.
   - Pushes compare against [horizon], never against [clock +
     wheel_slots]: between steps the clock may have been fast-forwarded
     past the horizon set at the last migration (a [Par_sim] flush
     pushes exactly then), and a slot past that horizon may not take a
     direct push before the cycle's far events have moved in.

   The size is a constant, not a knob. Of the events the rack
   benchmarks schedule less than 25,000 cycles ahead, 99.93% (rack-kv)
   and 99.67% (rack-ops) are due within 511 cycles: a frame takes at
   least 126 cycles over a board uplink and 250 through the ToR switch.
   The rest are mostly failure timeouts (the client's 25,000 cycles,
   the monitor's 50,000), about a fifth of all events: they wait in the
   far queue and enter the wheel one turn before they are due. *)
let wheel_slots = 512
let wheel_mask = wheel_slots - 1

let noop () = ()

(* The armed set is a bitset, [word_bits] tickers per int word. The tick
   loop finds a word's lowest set bit with one multiply by a 32-bit de
   Bruijn constant and a lookup in [debruijn]. Why 32: a 32-bit power of
   two times the 27-bit constant stays below 2^59, inside OCaml's 63-bit
   int, where a 64-bit word's constant would overflow it. *)
let word_bits = 32

let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] lowest_bit x = debruijn.((((x land -x) * 0x077CB531) lsr 27) land 31)

type t = {
  mutable clock : int;
  slots : (unit -> unit) array array;  (* grown on first use *)
  slot_len : int array;
  mutable n_near : int;  (* events in the wheel *)
  mutable horizon : int;
  far : (unit -> unit) Heap.t;
  mutable far_next_seq : int;
  mutable tickers : ticker array;
  mutable n_tickers : int;
  (* Ticker [i] is armed (scheduled to run) when bit [i mod word_bits]
     of word [i / word_bits] is set; [n_armed] counts the set bits. *)
  mutable armed_bits : int array;
  mutable n_armed : int;
  (* Pending [Idle_until] wakes, keyed (wake cycle, ticker index). An
     entry is stale, and discarded when it surfaces, once its ticker was
     re-armed or re-parked in the meantime. *)
  wakes : unit Heap.t;
  mutable dirty_fns : (unit -> unit) array;
  mutable n_dirty : int;
  mutable stop_requested : bool;
  mutable in_tick_phase : bool;
  (* Index of the ticker currently executing, -1 outside the tick loop;
     [self_rearm] records a re-arm a ticker aimed at itself mid-tick so
     an Idle report afterwards does not lose the wake-up. *)
  mutable cur_idx : int;
  mutable self_rearm : bool;
  mutable quiescent : bool;
  mutable skipped : int;
  mutable counted : bool;
  (* Tick accounting: ticker calls actually executed, plus enough state
     to derive skipped ticks in O(1) and flush process-wide deltas. *)
  mutable active_ticks : int;
  mutable sum_reg_clock : int;
  mutable flushed_active : int;
  mutable flushed_skipped_ticks : int;
  profiling : bool;
}

(* Total simulated cycles advanced (executed + fast-forwarded) across all
   simulator instances, including instances driven from other domains —
   the numerator of the bench harness's cycles/second figure. *)
let global = Atomic.make 0
let total_cycles () = Atomic.get global

(* Fast-forwarded (not executed) cycles across all counted instances —
   the numerator of the skipped-cycle ratio in perf reports. *)
let global_skipped = Atomic.make 0
let total_skipped () = Atomic.get global_skipped

(* Ticker calls executed vs ticker calls the activity-set scheduler
   avoided, across all instances. Unlike the cycle counters these are
   not [counted]-gated: each member of a partitioned run does real,
   distinct tick work. *)
let global_active_ticks = Atomic.make 0
let total_active_ticks () = Atomic.get global_active_ticks
let global_skipped_ticks = Atomic.make 0
let total_skipped_ticks () = Atomic.get global_skipped_ticks

let dummy_ticker = { fn = (fun () -> Idle); row = None; reg_clock = 0; wake = max_int }

let create () =
  {
    clock = 0;
    slots = Array.make wheel_slots [||];
    slot_len = Array.make wheel_slots 0;
    n_near = 0;
    horizon = wheel_slots;
    far = Heap.create ~fill:noop;
    far_next_seq = 0;
    tickers = Array.make 8 dummy_ticker;
    n_tickers = 0;
    armed_bits = Array.make 1 0;
    n_armed = 0;
    wakes = Heap.create ~fill:();
    dirty_fns = Array.make 8 noop;
    n_dirty = 0;
    stop_requested = false;
    in_tick_phase = false;
    cur_idx = -1;
    self_rearm = false;
    quiescent = false;
    skipped = 0;
    counted = true;
    active_ticks = 0;
    sum_reg_clock = 0;
    flushed_active = 0;
    flushed_skipped_ticks = 0;
    profiling = Profile.enabled ();
  }

let now t = t.clock
let cycles_skipped t = t.skipped
let tick_counts t =
  (t.active_ticks, (t.n_tickers * t.clock) - t.sum_reg_clock - t.active_ticks)

(* A Par_sim partition counts its cycles once, through its coordinator,
   not once per member domain. *)
let set_counted t b = t.counted <- b

let push_fn arr n fn =
  let arr = if n >= Array.length arr then begin
      let narr = Array.make (Int.max 4 (Array.length arr * 2)) fn in
      Array.blit arr 0 narr 0 n;
      narr
    end else arr
  in
  arr.(n) <- fn;
  arr

let push_near t time fn =
  let s = time land wheel_mask in
  let n = t.slot_len.(s) in
  let a = t.slots.(s) in
  if n < Array.length a then a.(n) <- fn else t.slots.(s) <- push_fn a n fn;
  t.slot_len.(s) <- n + 1;
  t.n_near <- t.n_near + 1

(* Start cycle [t.clock]: set the horizon one wheel turn ahead and move
   the far events it now covers into their slots, in (time, seq) order. *)
let migrate t =
  let h = t.clock + wheel_slots in
  t.horizon <- h;
  while (not (Heap.is_empty t.far)) && Heap.top_key t.far < h do
    push_near t (Heap.top_key t.far) (Heap.top t.far);
    Heap.drop t.far
  done

(* A target equal to the current cycle is kept only while that cycle's
   event phase is still open (it has not started, or we are inside it);
   from the ticker/commit phases the event phase has already passed, so
   the event is deferred to the next cycle. *)
let at t time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %d not schedulable at cycle %d" time t.clock);
  let time = if time = t.clock && t.in_tick_phase then time + 1 else time in
  if time < t.horizon then push_near t time fn
  else begin
    Heap.push t.far time t.far_next_seq fn;
    t.far_next_seq <- t.far_next_seq + 1
  end

let after t d fn =
  assert (d >= 0);
  at t (t.clock + d) fn

let every t ?start period fn =
  assert (period > 0);
  let first =
    match start with
    | Some s -> s
    | None -> (t.clock / period * period) + period
  in
  let rec arm time =
    at t time (fun () ->
        fn ();
        arm (time + period))
  in
  arm (max first (t.clock + 1))

(* ------------------------------------------------------------------ *)
(* Registration and re-arming. *)

let[@inline] bit h = 1 lsl (h land (word_bits - 1))

let armed t h = h >= 0 && t.armed_bits.(h / word_bits) land bit h <> 0

let arm t h =
  let w = h / word_bits in
  t.armed_bits.(w) <- t.armed_bits.(w) lor bit h;
  t.n_armed <- t.n_armed + 1;
  t.tickers.(h).wake <- max_int;
  t.quiescent <- false

let disarm t h =
  let w = h / word_bits in
  t.armed_bits.(w) <- t.armed_bits.(w) land lnot (bit h);
  t.n_armed <- t.n_armed - 1

let add_clocked_h ?(name = "clocked") t fn =
  let row = if t.profiling then Some (Profile.register name) else None in
  (* A ticker registered during the event phase (or between runs) is
     eligible from the current cycle — the flat scheduler's snapshot was
     taken after events — while one registered from the tick/commit
     phases starts next cycle: the tick loop visits only the tickers
     present at its entry. *)
  let reg_clock = if t.in_tick_phase then t.clock + 1 else t.clock in
  let idx = t.n_tickers in
  t.tickers <- push_fn t.tickers idx { fn; row; reg_clock; wake = max_int };
  t.n_tickers <- idx + 1;
  t.sum_reg_clock <- t.sum_reg_clock + reg_clock;
  let words = Array.length t.armed_bits in
  if idx / word_bits = words then
    t.armed_bits <- Array.append t.armed_bits (Array.make words 0);
  arm t idx;
  idx

let add_clocked ?name t fn = ignore (add_clocked_h ?name t fn)

(* The tick loop reads the bitset afresh after every tick, so a re-arm
   aimed past the running ticker runs this cycle; one aimed at an
   already-passed index, or made from the commit phase, the event phase
   or between runs, runs at the next tick loop: the visibility a flat
   loop over every index each cycle has. *)
let rearm t h =
  if h >= 0 then
    if armed t h then begin
      if h = t.cur_idx then t.self_rearm <- true
    end
    else arm t h

let active_tickers t = t.n_armed

let mark_dirty t fn =
  t.dirty_fns <- push_fn t.dirty_fns t.n_dirty fn;
  t.n_dirty <- t.n_dirty + 1;
  t.quiescent <- false

(* ------------------------------------------------------------------ *)
(* Stepping. *)

(* Run this cycle's slot, including events it schedules for this cycle
   while it runs. Each entry is overwritten as it runs, so no closure
   outlives its cycle. An event that raises leaves the cycle's unrun
   events at the front of the slot, and the next step resumes with them. *)
let run_due_events t =
  let s = t.clock land wheel_mask in
  let i = ref 0 in
  match
    while !i < t.slot_len.(s) do
      let a = t.slots.(s) in
      let fn = a.(!i) in
      a.(!i) <- noop;
      incr i;
      t.n_near <- t.n_near - 1;
      fn ()
    done
  with
  | () -> t.slot_len.(s) <- 0
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    let a = t.slots.(s) and rest = t.slot_len.(s) - !i in
    Array.blit a !i a 0 rest;
    Array.fill a rest !i noop;
    t.slot_len.(s) <- rest;
    Printexc.raise_with_backtrace e bt

(* Arm every parked ticker whose [Idle_until] wake is due, discarding
   stale entries. *)
let rec drain_due_wakes t =
  if (not (Heap.is_empty t.wakes)) && Heap.top_key t.wakes <= t.clock then begin
    let w = Heap.top_key t.wakes and idx = Heap.top_tie t.wakes in
    Heap.drop t.wakes;
    if (not (armed t idx)) && t.tickers.(idx).wake = w then arm t idx;
    drain_due_wakes t
  end

(* Earliest valid [Idle_until] wake, pruning stale entries. *)
let rec next_time_wake t =
  if Heap.is_empty t.wakes then max_int
  else begin
    let w = Heap.top_key t.wakes and idx = Heap.top_tie t.wakes in
    if armed t idx || t.tickers.(idx).wake <> w then begin
      Heap.drop t.wakes;
      next_time_wake t
    end
    else w
  end

(* Earliest pending event: the first non-empty slot before the horizon
   (at most one wheel turn away), else the far queue's head; [max_int]
   when there is none. *)
let next_event t =
  if t.n_near > 0 then begin
    let c = ref t.clock in
    while t.slot_len.(!c land wheel_mask) = 0 do
      incr c
    done;
    !c
  end
  else if not (Heap.is_empty t.far) then Heap.top_key t.far
  else max_int

(* Earliest event or valid [Idle_until] wake; [max_int] when neither
   exists. *)
let next_wake t = Int.min (next_event t) (next_time_wake t)

let run_ticker tk =
  match tk.row with
  | None -> tk.fn ()
  | Some r ->
    let t0 = Profile.now_s () in
    let a = tk.fn () in
    r.Profile.calls <- r.Profile.calls + 1;
    r.Profile.seconds <- r.Profile.seconds +. (Profile.now_s () -. t0);
    a

let[@inline] tick t idx =
  t.cur_idx <- idx;
  t.self_rearm <- false;
  let tk = t.tickers.(idx) in
  match run_ticker tk with
  | Busy -> ()
  | (Idle | Idle_until _) when t.self_rearm -> ()
  | Idle -> disarm t idx
  | Idle_until w ->
    disarm t idx;
    tk.wake <- w;
    Heap.push t.wakes w idx ()

let step t =
  migrate t;
  drain_due_wakes t;
  run_due_events t;
  t.in_tick_phase <- true;
  (* Visit the armed tickers present at loop entry in index order: take
     the lowest set bit at or past the cursor, re-reading the word after
     every tick. *)
  let n = t.n_tickers in
  let cur = ref 0 and calls = ref 0 in
  while !cur < n do
    let w = !cur / word_bits in
    let bits = t.armed_bits.(w) land (-1 lsl (!cur land (word_bits - 1))) in
    if bits = 0 then cur := (w + 1) * word_bits
    else begin
      let idx = (w * word_bits) + lowest_bit bits in
      cur := idx + 1;
      if idx < n then begin
        incr calls;
        tick t idx
      end
    end
  done;
  t.cur_idx <- -1;
  t.self_rearm <- false;
  t.active_ticks <- t.active_ticks + !calls;
  let committed = t.n_dirty > 0 in
  (* Live loop: commit functions must not stage new two-phase writes
     (they may re-arm parked consumers, which lands next cycle). *)
  let j = ref 0 in
  while !j < t.n_dirty do
    t.dirty_fns.(!j) ();
    incr j
  done;
  t.n_dirty <- 0;
  t.in_tick_phase <- false;
  t.quiescent <- t.n_armed = 0 && not committed;
  t.clock <- t.clock + 1

let stop t = t.stop_requested <- true
let stopped t = t.stop_requested

(* Flush per-instance counters into the process-wide totals, and (when
   profiling) derive each row's skipped-tick count: eligible cycles
   since registration minus calls executed. *)
let flush_tick_totals t =
  let skipped_total =
    (t.n_tickers * t.clock) - t.sum_reg_clock - t.active_ticks
  in
  ignore
    (Atomic.fetch_and_add global_active_ticks (t.active_ticks - t.flushed_active));
  ignore
    (Atomic.fetch_and_add global_skipped_ticks
       (skipped_total - t.flushed_skipped_ticks));
  t.flushed_active <- t.active_ticks;
  t.flushed_skipped_ticks <- skipped_total;
  if t.profiling then
    for i = 0 to t.n_tickers - 1 do
      let tk = t.tickers.(i) in
      match tk.row with
      | Some r -> r.Profile.skipped <- t.clock - tk.reg_clock - r.Profile.calls
      | None -> ()
    done

let run_until t time =
  t.stop_requested <- false;
  let entry_clock = t.clock in
  let entry_skipped = t.skipped in
  while t.clock < time && not t.stop_requested do
    (* Fast-forward across gaps where every clocked component is parked
       or quiescent and no two-phase state is pending commit: jump to
       the next event or the earliest Idle_until wake-up. *)
    if t.quiescent then begin
      let next = Int.min (next_wake t) time in
      if next > t.clock then begin
        t.skipped <- t.skipped + (next - t.clock);
        t.clock <- next
      end
    end;
    if t.clock < time then step t
  done;
  if t.counted then begin
    ignore (Atomic.fetch_and_add global (t.clock - entry_clock));
    ignore (Atomic.fetch_and_add global_skipped (t.skipped - entry_skipped))
  end;
  flush_tick_totals t

let run_for t n = run_until t (t.clock + n)
let pending_events t = t.n_near + Heap.length t.far

(* Earliest cycle at which this simulator can next do work: now, unless
   it is quiescent, in which case the next event or Idle_until wake-up
   (max_int when neither exists — fully drained). The adaptive parallel
   engine widens its windows to this bound. *)
let next_activity t =
  if not t.quiescent then t.clock else Int.max t.clock (next_wake t)
