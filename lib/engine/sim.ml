type activity = Busy | Idle | Idle_until of int

type handle = int

let no_handle = -1

(* A clocked component under the activity-set scheduler. [armed] means
   the ticker is scheduled to run (it is in the run list, the rearm
   staging area, or the current-cycle rearm heap); parked tickers carry
   their pending [Idle_until] wake in [wake] ([max_int] = none), which
   doubles as the staleness check for lazy deletion from the time
   heap. *)
type ticker = {
  fn : unit -> activity;
  row : Profile.row option;
  reg_clock : int;  (* first cycle this ticker was eligible to run *)
  mutable armed : bool;
  mutable wake : int;
}

(* The event queue is a timing wheel plus a far queue.

   The wheel has [wheel_slots] one-cycle slots. Slot [time land
   wheel_mask] holds the closures of the events due at [time], in the
   order they were scheduled. The wheel covers the cycles before
   [horizon], which each executed cycle sets to its own cycle plus
   [wheel_slots], so the near events span fewer than [wheel_slots]
   cycles and no two cycles share a slot. An event at or past the
   horizon waits in the far queue: a (time, seq) min-heap over two int
   arrays, with its closure in a third array.

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

type t = {
  mutable clock : int;
  slots : (unit -> unit) array array;  (* grown on first use *)
  slot_len : int array;
  mutable n_near : int;  (* events in the wheel *)
  mutable horizon : int;
  mutable far_time : int array;
  mutable far_seq : int array;
  mutable far_fn : (unit -> unit) array;
  mutable far_n : int;
  mutable far_next_seq : int;
  mutable tickers : ticker array;
  mutable n_tickers : int;
  (* Armed tickers scheduled for the next executed cycle, as a sorted
     array of indices. The tick loop merges [run] with [wake_now] in
     ascending index order and double-buffers Busy survivors into
     [run_next], which therefore stays sorted. *)
  mutable run : int array;
  mutable n_run : int;
  mutable run_next : int array;
  (* Re-arms that must take effect on the cycle currently being built:
     [wake_next] is the staging area drained into the [wake_now] heap at
     the top of each tick loop; during the loop, re-arms targeting a
     not-yet-reached index are pushed straight into [wake_now] so they
     still run this cycle (matching the flat scheduler, where a later
     ticker always observed an earlier ticker's writes in-cycle).
     [wake_now] is a binary min-heap of ticker indices. *)
  mutable wake_now : int array;
  mutable n_wake_now : int;
  mutable wake_next : int array;
  mutable n_wake_next : int;
  (* Pending [Idle_until] wakes as (wake cycle, ticker index) int pairs:
     a binary min-heap over two parallel arrays, ordered by cycle, then
     index. Entries are lazily discarded when the ticker was re-armed (or
     re-parked) in the meantime. *)
  mutable th_wake : int array;
  mutable th_idx : int array;
  mutable th_n : int;
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

let dummy_ticker =
  {
    fn = (fun () -> Idle);
    row = None;
    reg_clock = 0;
    armed = false;
    wake = max_int;
  }

let create () =
  {
    clock = 0;
    slots = Array.make wheel_slots [||];
    slot_len = Array.make wheel_slots 0;
    n_near = 0;
    horizon = wheel_slots;
    far_time = [||];
    far_seq = [||];
    far_fn = [||];
    far_n = 0;
    far_next_seq = 0;
    tickers = Array.make 8 dummy_ticker;
    n_tickers = 0;
    run = Array.make 8 0;
    n_run = 0;
    run_next = Array.make 8 0;
    wake_now = Array.make 8 0;
    n_wake_now = 0;
    wake_next = Array.make 8 0;
    n_wake_next = 0;
    th_wake = Array.make 8 0;
    th_idx = Array.make 8 0;
    th_n = 0;
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

(* The far queue. Sifts move a hole instead of swapping, so each level
   costs one write per array. *)

let key_less time seq time' seq' =
  time < time' || (time = time' && seq < seq')

let far_set t i time seq fn =
  t.far_time.(i) <- time;
  t.far_seq.(i) <- seq;
  t.far_fn.(i) <- fn

let far_move t ~src ~dst =
  far_set t dst t.far_time.(src) t.far_seq.(src) t.far_fn.(src)

let far_push t time fn =
  let n = t.far_n in
  if n = Array.length t.far_time then begin
    let cap = Int.max 16 (2 * n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.far_time <- grow t.far_time 0;
    t.far_seq <- grow t.far_seq 0;
    t.far_fn <- grow t.far_fn noop
  end;
  let seq = t.far_next_seq in
  t.far_next_seq <- seq + 1;
  t.far_n <- n + 1;
  (* [seq] is the newest, so only an earlier time moves it up. *)
  let i = ref n in
  while !i > 0 && time < t.far_time.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    far_move t ~src:p ~dst:!i;
    i := p
  done;
  far_set t !i time seq fn

let far_drop t =
  let n = t.far_n - 1 in
  t.far_n <- n;
  let time = t.far_time.(n) and seq = t.far_seq.(n) and fn = t.far_fn.(n) in
  t.far_fn.(n) <- noop;
  if n > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && key_less t.far_time.(r) t.far_seq.(r) t.far_time.(l) t.far_seq.(l)
          then r
          else l
        in
        if key_less t.far_time.(c) t.far_seq.(c) time seq then begin
          far_move t ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    far_set t !i time seq fn
  end

(* Start cycle [t.clock]: set the horizon one wheel turn ahead and move
   the far events it now covers into their slots, in (time, seq) order. *)
let migrate t =
  let h = t.clock + wheel_slots in
  t.horizon <- h;
  while t.far_n > 0 && t.far_time.(0) < h do
    let time = t.far_time.(0) and fn = t.far_fn.(0) in
    far_drop t;
    push_near t time fn
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
  if time < t.horizon then push_near t time fn else far_push t time fn

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

let push_wake_next t idx =
  if t.n_wake_next >= Array.length t.wake_next then begin
    let narr = Array.make (Array.length t.wake_next * 2) 0 in
    Array.blit t.wake_next 0 narr 0 t.n_wake_next;
    t.wake_next <- narr
  end;
  t.wake_next.(t.n_wake_next) <- idx;
  t.n_wake_next <- t.n_wake_next + 1

(* The [wake_now] heap of ticker indices. *)

let wake_now_push t idx =
  let n = t.n_wake_now in
  if n = Array.length t.wake_now then
    t.wake_now <- Array.append t.wake_now (Array.make n 0);
  let a = t.wake_now in
  t.n_wake_now <- n + 1;
  let i = ref n in
  while !i > 0 && idx < a.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    a.(!i) <- a.(p);
    i := p
  done;
  a.(!i) <- idx

let wake_now_drop t =
  let n = t.n_wake_now - 1 in
  t.n_wake_now <- n;
  if n > 0 then begin
    let a = t.wake_now in
    let x = a.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && a.(l + 1) < a.(l) then l + 1 else l in
        if a.(c) < x then begin
          a.(!i) <- a.(c);
          i := c
        end
        else sifting := false
      end
    done;
    a.(!i) <- x
  end

(* ------------------------------------------------------------------ *)
(* Registration and re-arming. *)

let add_clocked_h ?(name = "clocked") t fn =
  let row = if t.profiling then Some (Profile.register name) else None in
  (* A ticker registered during the event phase (or between runs) is
     eligible from the current cycle — the flat scheduler's snapshot was
     taken after events — while one registered from the tick/commit
     phases starts next cycle. The wake staging area reproduces both:
     it is drained at the top of the tick loop. *)
  let reg_clock = if t.in_tick_phase then t.clock + 1 else t.clock in
  let tk = { fn; row; reg_clock; armed = true; wake = max_int } in
  let idx = t.n_tickers in
  t.tickers <- push_fn t.tickers idx tk;
  t.n_tickers <- idx + 1;
  t.sum_reg_clock <- t.sum_reg_clock + reg_clock;
  push_wake_next t idx;
  t.quiescent <- false;
  idx

let add_clocked ?name t fn = ignore (add_clocked_h ?name t fn)

let rearm t h =
  if h >= 0 then begin
    let tk = t.tickers.(h) in
    if tk.armed then begin
      if h = t.cur_idx then t.self_rearm <- true
    end
    else begin
      tk.armed <- true;
      tk.wake <- max_int;
      t.quiescent <- false;
      (* During the tick loop a re-arm aimed past the merge cursor still
         runs this cycle; everything else (event phase, commit phase,
         already-passed indices, external callers) lands next cycle —
         exactly the visibility the flat per-cycle loop gave. *)
      if t.cur_idx >= 0 && h > t.cur_idx then wake_now_push t h
      else push_wake_next t h
    end
  end

let armed t h = h >= 0 && t.tickers.(h).armed

let active_tickers t = t.n_run + t.n_wake_next + t.n_wake_now

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

(* The [Idle_until] time heap. *)

let th_less t i j =
  let wi = t.th_wake.(i) and wj = t.th_wake.(j) in
  wi < wj || (wi = wj && t.th_idx.(i) < t.th_idx.(j))

let th_swap t i j =
  let w = t.th_wake.(i) and x = t.th_idx.(i) in
  t.th_wake.(i) <- t.th_wake.(j);
  t.th_idx.(i) <- t.th_idx.(j);
  t.th_wake.(j) <- w;
  t.th_idx.(j) <- x

let rec th_sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if th_less t i parent then begin
      th_swap t i parent;
      th_sift_up t parent
    end
  end

let rec th_sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.th_n && th_less t l i then l else i in
  let m = if r < t.th_n && th_less t r m then r else m in
  if m <> i then begin
    th_swap t i m;
    th_sift_down t m
  end

let th_push t w idx =
  if t.th_n = Array.length t.th_wake then begin
    let grow a = Array.append a (Array.make t.th_n 0) in
    t.th_wake <- grow t.th_wake;
    t.th_idx <- grow t.th_idx
  end;
  t.th_wake.(t.th_n) <- w;
  t.th_idx.(t.th_n) <- idx;
  t.th_n <- t.th_n + 1;
  th_sift_up t (t.th_n - 1)

let th_drop t =
  t.th_n <- t.th_n - 1;
  if t.th_n > 0 then begin
    t.th_wake.(0) <- t.th_wake.(t.th_n);
    t.th_idx.(0) <- t.th_idx.(t.th_n);
    th_sift_down t 0
  end

(* Arm every parked ticker whose [Idle_until] wake is due, discarding
   stale heap entries (ticker re-armed or re-parked since the push). *)
let rec drain_due_wakes t =
  if t.th_n > 0 then begin
    let w = t.th_wake.(0) and idx = t.th_idx.(0) in
    if w <= t.clock then begin
      th_drop t;
      let tk = t.tickers.(idx) in
      if (not tk.armed) && tk.wake = w then begin
        tk.armed <- true;
        tk.wake <- max_int;
        push_wake_next t idx
      end;
      drain_due_wakes t
    end
  end

(* Earliest valid [Idle_until] wake, pruning stale entries. *)
let rec next_time_wake t =
  if t.th_n = 0 then max_int
  else begin
    let w = t.th_wake.(0) in
    let tk = t.tickers.(t.th_idx.(0)) in
    if tk.armed || tk.wake <> w then begin
      th_drop t;
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
  else if t.far_n > 0 then t.far_time.(0)
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

let step t =
  migrate t;
  drain_due_wakes t;
  run_due_events t;
  t.in_tick_phase <- true;
  (* Stage pending re-arms for this cycle. *)
  for k = 0 to t.n_wake_next - 1 do
    wake_now_push t t.wake_next.(k)
  done;
  t.n_wake_next <- 0;
  (* Only tickers present at loop entry can run this cycle, so the
     survivor buffer needs capacity for exactly those. *)
  if Array.length t.run_next < t.n_tickers then
    t.run_next <- Array.make (Int.max 8 (2 * t.n_tickers)) 0;
  let run = t.run and n = t.n_run in
  let nxt = t.run_next in
  let n_nxt = ref 0 in
  let ncalled = ref 0 in
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let a = if !i < n then run.(!i) else max_int in
    let b = if t.n_wake_now = 0 then max_int else t.wake_now.(0) in
    if a = max_int && b = max_int then continue_ := false
    else begin
      let idx = if a <= b then a else b in
      if a <= b then incr i;
      if b <= a then wake_now_drop t;
      t.cur_idx <- idx;
      t.self_rearm <- false;
      let tk = t.tickers.(idx) in
      incr ncalled;
      let act = run_ticker tk in
      let act =
        match act with
        | (Idle | Idle_until _) when t.self_rearm -> Busy
        | a -> a
      in
      match act with
      | Busy ->
        nxt.(!n_nxt) <- idx;
        incr n_nxt
      | Idle -> tk.armed <- false
      | Idle_until w ->
        tk.armed <- false;
        tk.wake <- w;
        th_push t w idx
    end
  done;
  t.cur_idx <- -1;
  t.self_rearm <- false;
  t.active_ticks <- t.active_ticks + !ncalled;
  (* Double-buffer swap: survivors become next cycle's run list. *)
  t.run <- nxt;
  t.n_run <- !n_nxt;
  t.run_next <- run;
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
  t.quiescent <-
    t.n_run = 0 && t.n_wake_next = 0 && not committed;
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
let pending_events t = t.n_near + t.far_n

(* Earliest cycle at which this simulator can next do work: now, unless
   it is quiescent, in which case the next event or Idle_until wake-up
   (max_int when neither exists — fully drained). The adaptive parallel
   engine widens its windows to this bound. *)
let next_activity t =
  if not t.quiescent then t.clock else Int.max t.clock (next_wake t)
