type ph = Dur | Mark

type event = {
  name : string;
  cat : string;
  corr : int;
  board : int;
  track : int;
  ts : int;
  mutable dur : int;
  ph : ph;
  mutable args : (string * string) list;
}

(* An open span is a handle to its own event. [stored] says whether the
   event went to the store (else head sampling parked it in the handle,
   for a tail rule to promote at finish); [epoch] is the reset epoch it
   was opened in, so a handle from before a reset cannot touch the fresh
   store or a sink. *)
type id = Null | Open of { ev : event; epoch : int; stored : bool }

let null = Null

(* Process-global recorder. The flag is the only thing hot paths read
   first. The lock guards the store, its counters and the sink table,
   and is taken only to append a kept event or close a stored one; a
   sampled-away span costs a branch and an atomic increment.
   [head_mod], [slow_cycles] and [epoch] change only between runs
   (set_sampling, reset, set_capacity), so the recording paths read
   them without the lock. *)
let flag = ref false
let lock = Mutex.create ()
let cap = ref 1_048_576
let store : event array ref = ref [||]
let n = ref 0
let n_dropped = ref 0
let n_sampled = Atomic.make 0
let epoch = ref 0

(* Deterministic head sampling: keep a corr family when
   [hash(corr) mod head_mod = 0]. [head_mod = 1] keeps everything.
   Tail rules promote sampled-away spans that turn out interesting:
   slower than [slow_cycles], carrying an error name or a non-"ok"
   status. Corr 0 (uncorrelated) spans are always kept — they are the
   low-volume control-plane events (client requests, switch decisions,
   sched/health marks) the sampled trace still needs for context. *)
let head_mod = ref 1
let slow_cycles = ref max_int

(* One-shot per process: dropping events silently at scale is exactly
   the failure mode sampling exists to prevent, so say it once. *)
let warned_drop = ref false

(* Per-board completion sinks: the telemetry agent on board [b] taps
   the Dur spans that complete on [b]'s own domain, post-sampling, so
   shipping them over the fabric never reads another board's state. For
   one-shot completions the sink decision is a pure function of the
   span (keep_head/tail_keep), independent of whether the central store
   had room, so the same spans reach the same agent under Seq and
   partitioned engines; start/finish spans additionally require the
   open span to have found a slot (keep the cap ample when agents run).
   Sinks fire while the recorder lock is held: a sink must not call
   back into this module. Mark events are not delivered (frame-level
   points are too chatty for the wire; agents ship intervals). *)
let sinks : (int, event -> unit) Hashtbl.t = Hashtbl.create 8

let set_sink ~board f =
  Mutex.lock lock;
  Hashtbl.replace sinks board f;
  Mutex.unlock lock

let clear_sink ~board =
  Mutex.lock lock;
  Hashtbl.remove sinks board;
  Mutex.unlock lock

(* Deliver a completed Dur span to its board's sink, if any; caller
   must hold the lock. *)
let notify ev =
  if ev.board >= 0 then
    match Hashtbl.find_opt sinks ev.board with Some f -> f ev | None -> ()

let set_enabled b = flag := b
let on () = !flag

let reset_locked () =
  store := [||];
  n := 0;
  n_dropped := 0;
  Atomic.set n_sampled 0;
  incr epoch

let reset () =
  Mutex.lock lock;
  reset_locked ();
  Mutex.unlock lock

let set_capacity c =
  assert (c > 0);
  Mutex.lock lock;
  cap := c;
  reset_locked ();
  Mutex.unlock lock

let set_sampling ?head_mod:(hm = 1) ?slow_cycles:(sc = max_int) () =
  if hm < 1 then invalid_arg "Span.set_sampling: head_mod must be >= 1";
  head_mod := hm;
  slow_cycles := sc

(* Avalanche mix (splitmix-style finalizer with 62-bit-safe odd
   constants — OCaml ints are 63-bit, the classic 64-bit constants do
   not fit). Spreads consecutive corr ids uniformly so [mod head_mod]
   picks an unbiased, deterministic subset. *)
let mix x =
  let h = x lxor (x lsr 30) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 27) in
  let h = h * 0x3C79AC492BA7B653 in
  let h = h lxor (h lsr 31) in
  h land max_int

let keep_head corr =
  corr = 0 || !head_mod <= 1 || mix corr mod !head_mod = 0

(* Names that always survive sampling: faults and rejections are the
   spans a postmortem needs most. *)
let tail_name = function
  | "fault" | "deny" | "drop" | "timeout" | "failover" | "board_down" -> true
  | _ -> false

(* The first "status" argument, the one [List.assoc_opt] would find, is
   not "ok": a scan with [String.equal], so a sampled-away span makes no
   polymorphic compare and no option. *)
let rec failed_status = function
  | [] -> false
  | (k, v) :: rest ->
    if String.equal k "status" then not (String.equal v "ok") else failed_status rest

let tail_keep ~name ~dur args =
  dur >= !slow_cycles || tail_name name || failed_status args

(* Append; caller must hold the lock. False when full. *)
let push_locked ev =
  if !n >= !cap then begin
    incr n_dropped;
    if not !warned_drop then begin
      warned_drop := true;
      Printf.eprintf
        "apiary obs: span buffer full at %d events; dropping (enable \
         sampling)\n%!"
        !cap
    end;
    false
  end
  else begin
    if !n >= Array.length !store then begin
      let grown = Array.make (max 1024 (2 * Array.length !store)) ev in
      Array.blit !store 0 grown 0 !n;
      store := grown
    end;
    !store.(!n) <- ev;
    incr n;
    true
  end

let start ?(board = -1) ?(corr = 0) ?(args = []) ~cat ~name ~track ~ts () =
  if not !flag then null
  else begin
    let ev =
      { name; cat; corr; board; track; ts; dur = -1; ph = Dur; args }
    in
    if keep_head corr then begin
      Mutex.lock lock;
      let stored = push_locked ev in
      Mutex.unlock lock;
      if stored then Open { ev; epoch = !epoch; stored = true } else null
    end
    else
      (* Sampled away for now; the handle parks it so a tail rule can
         promote it when the close reveals an error or a slow request. *)
      Open { ev; epoch = !epoch; stored = false }
  end

(* Finishing is allowed even after tracing was switched off, so spans
   opened during a run can be closed by callbacks that fire after the
   driver disabled capture. *)
let finish ?(args = []) ~ts = function
  | Open { ev; epoch = e; stored = true } when e = !epoch ->
    Mutex.lock lock;
    if ev.dur < 0 then begin
      ev.dur <- max 0 (ts - ev.ts);
      if args <> [] then ev.args <- ev.args @ args;
      notify ev
    end;
    Mutex.unlock lock
  | Open { ev; epoch = e; stored = false } when e = !epoch && ev.dur < 0 ->
    (* A parked span: promote it if a tail rule fires on the completed
       interval, count it sampled otherwise. Its duration closes the
       handle either way, so a second finish is a no-op. *)
    let dur = max 0 (ts - ev.ts) in
    let merged = if args = [] then ev.args else ev.args @ args in
    ev.dur <- dur;
    if tail_keep ~name:ev.name ~dur merged then begin
      ev.args <- merged;
      Mutex.lock lock;
      ignore (push_locked ev);
      notify ev;
      Mutex.unlock lock
    end
    else Atomic.incr n_sampled
  | _ -> ()

let complete ?(board = -1) ?(corr = 0) ?(args = []) ~cat ~name ~track ~ts ~dur
    () =
  if !flag then begin
    let dur = max 0 dur in
    if keep_head corr || tail_keep ~name ~dur args then begin
      let ev = { name; cat; corr; board; track; ts; dur; ph = Dur; args } in
      Mutex.lock lock;
      ignore (push_locked ev);
      notify ev;
      Mutex.unlock lock
    end
    else Atomic.incr n_sampled
  end

let instant ?(board = -1) ?(corr = 0) ?(args = []) ~cat ~name ~track ~ts () =
  if !flag then
    if keep_head corr || tail_keep ~name ~dur:0 args then begin
      let ev =
        { name; cat; corr; board; track; ts; dur = 0; ph = Mark; args }
      in
      Mutex.lock lock;
      ignore (push_locked ev);
      Mutex.unlock lock
    end
    else Atomic.incr n_sampled

let events () =
  Mutex.lock lock;
  let out = List.init !n (Array.get !store) in
  Mutex.unlock lock;
  out

let count () =
  Mutex.lock lock;
  let c = !n in
  Mutex.unlock lock;
  c

let dropped () =
  Mutex.lock lock;
  let d = !n_dropped in
  Mutex.unlock lock;
  d

let sampled () = Atomic.get n_sampled
