type mode = Seq | Par

(* A cross-partition post is delivered in (time, src, seq) order. [seq]
   is per-source and assigned at post time, so that order depends only
   on each member's own deterministic execution, never on how windows
   were scheduled or how domains interleaved. A pending post's heap tie
   packs [src] above a [seq_bits]-bit [seq]. 2^40 posts is beyond any
   run: a source posting every cycle reaches it after about twelve days
   of host time at the engine's ~10^6 cycles/s. The 22 bits left of a
   non-negative int hold more partitions than any rack has. *)
let seq_bits = 40

type staged = { time : int; tie : int; fn : unit -> unit }

(* Worker handshake. Workers park in [wait] until the coordinator opens
   an epoch by bumping [epoch]; each pulls members off the steal queue
   until the window's members are all taken, then bumps [n_done]. All
   fields are accessed under [lock]. *)
type shared = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable epoch : int;
  mutable target : int;
  mutable n_done : int;
  mutable quit : bool;
  mutable failure : exn option;
}

type member = {
  msim : Sim.t;
  (* Canonical inbound queue: every post bound for this member, ordered
     (time, src, seq). Flushed into [msim] only once the window that
     could execute the post's cycle is about to open — so the per-sim
     insertion order of cross-partition events is a pure function of the
     inputs, identical for every window schedule and execution mode. *)
  pending : (unit -> unit) Heap.t;
  mutable wend : int;  (* end of the window this member is executing *)
}

type t = {
  mode : mode;
  adaptive : bool;
  lookahead : int;
  domains : int;  (* OS domains used under Par (coordinator included) *)
  members : member array;
  (* Par window execution: members are pulled from a shared steal queue
     instead of being pinned one-per-domain. [steal_order] lists member
     indices busiest-first (by armed-ticker count) and [steal_next] is
     the pull cursor. Written by the coordinator before the epoch opens;
     the epoch handshake publishes them. *)
  steal_order : int array;
  steal_next : int Atomic.t;
  (* Single-producer staging: member s appends to scratch.(s).(d) during
     its window; the coordinator collects them at the barrier. Self-posts
     (s = d) skip staging and go straight into the member's own pending
     heap. *)
  scratch : staged list ref array array;
  out_seq : int array;
  mutable clock : int;
  sh : shared;
  mutable workers : unit Domain.t array;
  mutable stall_s : float;
  (* Window-width accounting, for perf reports and the qcheck bound
     properties: count, min and max width over the engine's lifetime. *)
  mutable n_windows : int;
  mutable min_window : int;
  mutable max_window : int;
}

(* Microseconds of barrier stall across every instance in the process. *)
let global_stall_us = Atomic.make 0
let total_barrier_stall_s () = float_of_int (Atomic.get global_stall_us) *. 1e-6

(* Window-width accounting across every instance in the process, so the
   bench harness can report adaptive-window behaviour per experiment.
   Updated once per window; min/max via CAS (instances may run
   concurrently on different domains, e.g. in a parallel sweep). *)
let global_windows = Atomic.make 0
let global_min_window = Atomic.make max_int
let global_max_window = Atomic.make 0

(* Par windows, and the OS domains summed over them: differenced around
   a run, their ratio is the domains its Par windows actually ran on. *)
let global_par_windows = Atomic.make 0
let global_domain_windows = Atomic.make 0

let rec atomic_min a (v : int) =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let rec atomic_max a (v : int) =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let total_window_stats () =
  let n = Atomic.get global_windows in
  ( n,
    (if n = 0 then 0 else Atomic.get global_min_window),
    Atomic.get global_max_window )

let total_par_windows () =
  (Atomic.get global_par_windows, Atomic.get global_domain_windows)

(* Which partition the calling domain is currently executing, if any.
   Member code runs with its index set; coordinator code between windows
   runs with [None]. Replica-owned state (e.g. the cluster directory's
   per-partition route caches) asserts against this to catch
   cross-domain writes in debug builds. *)
let part_key = Domain.DLS.new_key (fun () -> None)
let current_partition () = Domain.DLS.get part_key
let set_part v = Domain.DLS.set part_key v

let create ?(mode = Seq) ?(adaptive = false) ?domains ~lookahead ~n () =
  if lookahead < 1 then invalid_arg "Par_sim.create: lookahead must be >= 1";
  if n < 1 then invalid_arg "Par_sim.create: n must be >= 1";
  let domains =
    match domains with None -> n | Some d -> max 1 (min d n)
  in
  let members =
    Array.init n (fun i ->
        let msim = Sim.create () in
        (* Member 0 is the counted sim; the others would multiply-report
           the same simulated interval. *)
        if i > 0 then Sim.set_counted msim false;
        { msim; pending = Heap.create ~fill:ignore; wend = 0 })
  in
  {
    mode;
    adaptive;
    lookahead;
    domains;
    members;
    steal_order = Array.init n (fun i -> i);
    steal_next = Atomic.make 0;
    scratch = Array.init n (fun _ -> Array.init n (fun _ -> ref []));
    out_seq = Array.make n 0;
    clock = 0;
    sh =
      {
        lock = Mutex.create ();
        cond = Condition.create ();
        epoch = 0;
        target = 0;
        n_done = 0;
        quit = false;
        failure = None;
      };
    workers = [||];
    stall_s = 0.0;
    n_windows = 0;
    min_window = max_int;
    max_window = 0;
  }

let mode t = t.mode
let n_domains t = Array.length t.members
let domains_used t = t.domains
let lookahead t = t.lookahead
let sim t i = t.members.(i).msim
let now t = t.clock
let barrier_stall_s t = t.stall_s

let window_stats t =
  (t.n_windows, (if t.n_windows = 0 then 0 else t.min_window), t.max_window)

let record_window t w =
  t.n_windows <- t.n_windows + 1;
  if w < t.min_window then t.min_window <- w;
  if w > t.max_window then t.max_window <- w;
  Atomic.incr global_windows;
  atomic_min global_min_window w;
  atomic_max global_max_window w

let post t ~src ~dst ~time fn =
  let n = Array.length t.members in
  let m = t.members.(src) in
  if time < m.wend then
    invalid_arg
      (Printf.sprintf
         "Par_sim.post: time %d inside the open window (end %d) — lookahead \
          violation from partition %d"
         time m.wend src);
  (* The stronger contract — delivery at least one lookahead past the
     source's own clock — is what makes the merged schedule independent
     of window placement (adaptive widening, random window schedules).
     The window check above would let a post near the end of a wide
     window slip under it. *)
  if n > 1 && time < Sim.now m.msim + t.lookahead then
    invalid_arg
      (Printf.sprintf
         "Par_sim.post: time %d under lookahead %d from partition %d at cycle \
          %d"
         time t.lookahead src (Sim.now m.msim));
  let seq = t.out_seq.(src) in
  if seq lsr seq_bits <> 0 then
    invalid_arg
      (Printf.sprintf "Par_sim.post: partition %d outgrew %d-bit sequence numbers"
         src seq_bits);
  t.out_seq.(src) <- seq + 1;
  let tie = (src lsl seq_bits) lor seq in
  if dst = src then Heap.push m.pending time tie fn
  else
    let q = t.scratch.(src).(dst) in
    q := { time; tie; fn } :: !q

(* Move every staged post into its destination's pending heap. Runs on
   the coordinating thread with all workers parked (the epoch handshake
   provides the happens-before edge for the scratch lists). *)
let collect t =
  let n = Array.length t.members in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      match !(t.scratch.(s).(d)) with
      | [] -> ()
      | posts ->
        t.scratch.(s).(d) := [];
        let pending = t.members.(d).pending in
        List.iter (fun p -> Heap.push pending p.time p.tie p.fn) posts
    done
  done

(* Flush pending posts due before [wend] into the member's simulator, in
   canonical (time, src, seq) order. *)
let rec flush_member m wend =
  if (not (Heap.is_empty m.pending)) && Heap.top_key m.pending < wend then begin
    Sim.at m.msim (Heap.top_key m.pending) (Heap.top m.pending);
    Heap.drop m.pending;
    flush_member m wend
  end

(* Adaptive window bound: no member can execute anything before the
   earliest of (its own next activity, its earliest pending post), so
   nothing can be posted earlier than that cycle — and every post lands
   at least one lookahead later. Windows may therefore widen to
   [earliest + lookahead] without violating conservative order. *)
let earliest_activity t =
  Array.fold_left
    (fun acc m ->
      let a = Sim.next_activity m.msim in
      let p = if Heap.is_empty m.pending then max_int else Heap.top_key m.pending in
      Int.min acc (Int.min a p))
    max_int t.members

let compute_wend t target =
  if not t.adaptive then Int.min (t.clock + t.lookahead) target
  else begin
    let e = earliest_activity t in
    if e >= target - t.lookahead then target
    else Int.min target (e + t.lookahead)
  end

(* ------------------------------------------------------------------ *)
(* Par mode spawns [domains - 1] workers and every participant —
   coordinator included — pulls members off the shared steal queue, so
   an imbalanced partition (one busy board, many quiescent ones) keeps
   all domains fed and a board count larger than the core count still
   runs every member. *)

let steal_loop t target =
  let n = Array.length t.members in
  let continue_ = ref true in
  while !continue_ do
    let k = Atomic.fetch_and_add t.steal_next 1 in
    if k >= n then continue_ := false
    else begin
      let i = t.steal_order.(k) in
      set_part (Some i);
      Fun.protect
        ~finally:(fun () -> set_part None)
        (fun () -> Sim.run_until t.members.(i).msim target)
    end
  done

(* A member that raises is reported once the window's barrier is
   reached; the first failure wins. *)
let steal t target =
  try steal_loop t target
  with e ->
    let sh = t.sh in
    Mutex.lock sh.lock;
    if sh.failure = None then sh.failure <- Some e;
    Mutex.unlock sh.lock

let worker t () =
  let sh = t.sh in
  let my_epoch = ref 0 in
  let rec loop () =
    Mutex.lock sh.lock;
    while sh.epoch = !my_epoch && not sh.quit do
      Condition.wait sh.cond sh.lock
    done;
    if sh.quit then Mutex.unlock sh.lock
    else begin
      my_epoch := sh.epoch;
      let target = sh.target in
      Mutex.unlock sh.lock;
      steal t target;
      Mutex.lock sh.lock;
      sh.n_done <- sh.n_done + 1;
      if sh.n_done = t.domains - 1 then Condition.broadcast sh.cond;
      Mutex.unlock sh.lock;
      loop ()
    end
  in
  loop ()

let ensure_workers t =
  if Array.length t.workers = 0 && t.domains > 1 then begin
    t.sh.quit <- false;
    t.workers <- Array.init (t.domains - 1) (fun _ -> Domain.spawn (worker t))
  end

let shutdown t =
  if Array.length t.workers > 0 then begin
    let sh = t.sh in
    Mutex.lock sh.lock;
    sh.quit <- true;
    Condition.broadcast sh.cond;
    Mutex.unlock sh.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let open_epoch t target =
  ensure_workers t;
  let sh = t.sh in
  Mutex.lock sh.lock;
  sh.epoch <- sh.epoch + 1;
  sh.target <- target;
  sh.n_done <- 0;
  Condition.broadcast sh.cond;
  Mutex.unlock sh.lock

let wait_workers t =
  let sh = t.sh in
  let t0 = Profile.now_s () in
  Mutex.lock sh.lock;
  while sh.n_done < t.domains - 1 do
    Condition.wait sh.cond sh.lock
  done;
  let failure = sh.failure in
  sh.failure <- None;
  Mutex.unlock sh.lock;
  let stall = Profile.now_s () -. t0 in
  t.stall_s <- t.stall_s +. stall;
  ignore (Atomic.fetch_and_add global_stall_us (int_of_float (stall *. 1e6)));
  match failure with None -> () | Some e -> raise e

(* The partition marker must not outlive the window even when a member
   raises (e.g. a lookahead-violation or an ownership assert surfacing
   to the caller) — a stale marker would poison every later
   owner_check on this domain. *)
let run_window_seq t wend =
  Fun.protect
    ~finally:(fun () -> set_part None)
    (fun () ->
      Array.iteri
        (fun i m ->
          set_part (Some i);
          Sim.run_until m.msim wend)
        t.members)

(* Busiest members first: a window's wall-clock is the slowest domain,
   so big members must not be picked up last. Armed-ticker counts are a
   cheap deterministic proxy for a member's per-cycle work. Which domain
   ends up running which member does not affect results — members are
   isolated within a window — so the steal schedule is free to vary. *)
let refresh_steal_order t =
  let n = Array.length t.members in
  let act = Array.map (fun m -> Sim.active_tickers m.msim) t.members in
  let ord = t.steal_order in
  for i = 0 to n - 1 do
    ord.(i) <- i
  done;
  Array.sort
    (fun a b ->
      let c = compare act.(b) act.(a) in
      if c <> 0 then c else compare a b)
    ord;
  Atomic.set t.steal_next 0

let run_window_par t wend =
  Atomic.incr global_par_windows;
  ignore (Atomic.fetch_and_add global_domain_windows t.domains);
  refresh_steal_order t;
  open_epoch t wend;
  steal t wend;
  wait_workers t

let run_until t time =
  while t.clock < time do
    collect t;
    let wend = compute_wend t time in
    record_window t (wend - t.clock);
    Array.iter
      (fun m ->
        flush_member m wend;
        m.wend <- wend)
      t.members;
    (match t.mode with
    | Seq -> run_window_seq t wend
    | Par -> run_window_par t wend);
    t.clock <- wend
  done

let run_for t n = run_until t (t.clock + n)
