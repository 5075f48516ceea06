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

(* Window handshake. The coordinator opens an epoch by resetting
   [n_done], writing [target] and then bumping [epoch]: the atomic bump
   publishes [target]. Each worker runs its home members and bumps
   [n_done]. A waiter spins on the atomics (when the pool fits the
   host), then parks on [cond]: it first counts itself in
   [parked_workers] or [parked_coord] and re-checks its condition under
   [lock] before waiting. A waker changes its atomic first and takes
   [lock] to broadcast only when someone has parked. The atomics are
   sequentially consistent, so at least one side sees the other's write
   and no wake-up is lost. *)
type shared = {
  lock : Mutex.t;
  cond : Condition.t;
  epoch : int Atomic.t;
  mutable target : int;
  n_done : int Atomic.t;
  quit : bool Atomic.t;
  parked_workers : int Atomic.t;
  parked_coord : int Atomic.t;
  failure : exn option Atomic.t;  (* the window's first member exception *)
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
  spin : bool;  (* the pool fits the host: waiters spin before parking *)
  members : member array;
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
  mutable merge_s : float;
  (* Window-width accounting, for perf reports and the qcheck bound
     properties: count, min and max width over the engine's lifetime. *)
  mutable n_windows : int;
  mutable min_window : int;
  mutable max_window : int;
}

(* Microseconds of barrier stall and of the coordinator's serial section
   across every instance in the process. *)
let global_stall_us = Atomic.make 0
let global_merge_us = Atomic.make 0
let total_barrier_stall_s () = float_of_int (Atomic.get global_stall_us) *. 1e-6
let total_merge_s () = float_of_int (Atomic.get global_merge_us) *. 1e-6

let add_us counter s =
  ignore (Atomic.fetch_and_add counter (Float.to_int (Float.round (s *. 1e6))))

(* Windows run by every instance in the process (instances may run
   concurrently on different domains, e.g. in a parallel sweep), so the
   bench harness can count an experiment's windows by differencing. *)
let global_windows = Atomic.make 0

(* Par windows, and the OS domains summed over them: differenced around
   a run, their ratio is the domains its Par windows actually ran on. *)
let global_par_windows = Atomic.make 0
let global_domain_windows = Atomic.make 0

let total_windows () = Atomic.get global_windows

let total_par_windows () =
  (Atomic.get global_par_windows, Atomic.get global_domain_windows)

(* Which partition the calling domain is currently executing, if any.
   Member code runs with its index set; coordinator code between windows
   runs with [None]. Replica-owned state (e.g. the cluster directory's
   per-partition route caches) asserts against this to catch
   cross-domain writes; the asserts run in every build. *)
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
    spin = domains <= Domain.recommended_domain_count ();
    members;
    scratch = Array.init n (fun _ -> Array.init n (fun _ -> ref []));
    out_seq = Array.make n 0;
    clock = 0;
    sh =
      {
        lock = Mutex.create ();
        cond = Condition.create ();
        epoch = Atomic.make 0;
        target = 0;
        n_done = Atomic.make 0;
        quit = Atomic.make false;
        parked_workers = Atomic.make 0;
        parked_coord = Atomic.make 0;
        failure = Atomic.make None;
      };
    workers = [||];
    stall_s = 0.0;
    merge_s = 0.0;
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
let merge_s t = t.merge_s

let window_stats t =
  (t.n_windows, (if t.n_windows = 0 then 0 else t.min_window), t.max_window)

let record_window t w =
  t.n_windows <- t.n_windows + 1;
  if w < t.min_window then t.min_window <- w;
  if w > t.max_window then t.max_window <- w;
  Atomic.incr global_windows

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
   the coordinating thread between windows (the epoch handshake provides
   the happens-before edge for the scratch lists). *)
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
(* Par mode spawns [domains - 1] workers. Member [i] has a fixed home,
   participant [i mod domains], with the coordinator as participant 0:
   a member that stays on one core from window to window does its work
   faster than one moved between cores. *)

(* About half a millisecond of [Domain.cpu_relax] on a current x86
   core, several windows' worth: the pool spins through a run's windows
   and parks between runs. *)
let spin_limit = 20_000

let wake sh =
  Mutex.lock sh.lock;
  Condition.broadcast sh.cond;
  Mutex.unlock sh.lock

(* Participant [p] runs its home members. A member that raises is
   reported once the window's barrier is reached; the first failure
   wins. *)
let run_home t p target =
  let n = Array.length t.members in
  try
    Fun.protect
      ~finally:(fun () -> set_part None)
      (fun () ->
        let i = ref p in
        while !i < n do
          set_part (Some !i);
          Sim.run_until t.members.(!i).msim target;
          i := !i + t.domains
        done)
  with e -> ignore (Atomic.compare_and_set t.sh.failure None (Some e))

(* Wait until [ready ()]: spin first when the pool fits the host, then
   park. A parking waiter counts itself in [parked] and re-checks under
   the lock, so a waker that reads [parked] after changing its atomic
   knows whether to broadcast. *)
let await t ready ~parked =
  let sh = t.sh in
  let spins = ref (if t.spin then spin_limit else 0) in
  while !spins > 0 && not (ready ()) do
    Domain.cpu_relax ();
    decr spins
  done;
  if not (ready ()) then begin
    Atomic.incr parked;
    Mutex.lock sh.lock;
    while not (ready ()) do
      Condition.wait sh.cond sh.lock
    done;
    Mutex.unlock sh.lock;
    Atomic.decr parked
  end

(* [epoch0] is the engine's epoch at spawn: a worker respawned after
   [shutdown] must not replay the last window's target. *)
let worker t p epoch0 () =
  let sh = t.sh in
  let rec loop seen =
    await t
      (fun () -> Atomic.get sh.epoch <> seen || Atomic.get sh.quit)
      ~parked:sh.parked_workers;
    if not (Atomic.get sh.quit) then begin
      let epoch = Atomic.get sh.epoch in
      run_home t p sh.target;
      if
        Atomic.fetch_and_add sh.n_done 1 = t.domains - 2
        && Atomic.get sh.parked_coord > 0
      then wake sh;
      loop epoch
    end
  in
  loop epoch0

let ensure_workers t =
  if Array.length t.workers = 0 && t.domains > 1 then begin
    Atomic.set t.sh.quit false;
    let epoch = Atomic.get t.sh.epoch in
    t.workers <-
      Array.init (t.domains - 1) (fun k -> Domain.spawn (worker t (k + 1) epoch))
  end

let shutdown t =
  if Array.length t.workers > 0 then begin
    Atomic.set t.sh.quit true;
    wake t.sh;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let open_epoch t target =
  ensure_workers t;
  let sh = t.sh in
  Atomic.set sh.n_done 0;
  sh.target <- target;
  Atomic.incr sh.epoch;
  if Atomic.get sh.parked_workers > 0 then wake sh

let wait_workers t =
  let sh = t.sh in
  let t0 = Profile.now_s () in
  await t
    (fun () -> Atomic.get sh.n_done = t.domains - 1)
    ~parked:sh.parked_coord;
  let stall = Profile.now_s () -. t0 in
  t.stall_s <- t.stall_s +. stall;
  add_us global_stall_us stall;
  match Atomic.exchange sh.failure None with None -> () | Some e -> raise e

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

(* Which domain runs which member does not affect results — members are
   isolated within a window. *)
let run_window_par t wend =
  Atomic.incr global_par_windows;
  ignore (Atomic.fetch_and_add global_domain_windows t.domains);
  open_epoch t wend;
  run_home t 0 wend;
  wait_workers t

let run_until t time =
  while t.clock < time do
    (* Under Par the serial section, from here to the epoch's opening,
       is timed: the coordinator runs it while the workers wait. *)
    let t0 = match t.mode with Seq -> 0.0 | Par -> Profile.now_s () in
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
    | Par ->
      let merge = Profile.now_s () -. t0 in
      t.merge_s <- t.merge_s +. merge;
      add_us global_merge_us merge;
      run_window_par t wend);
    t.clock <- wend
  done

let run_for t n = run_until t (t.clock + n)
