type 'a t = {
  capacity : int;
  sim : Sim.t;
  (* Committed entries: circular buffer [ring] holding [len] values
     starting at [head]. Physical size is a power of two ([mask] is
     size - 1); starts as [||] and grows on demand, so an element value
     is always available to seed [Array.make]. Popped slots keep their
     reference until overwritten — bounded by peak occupancy, which is
     fine for a simulator. *)
  mutable ring : 'a array;
  mutable mask : int;
  mutable head : int;
  mutable len : int;
  (* Staged entries: appended in push order, drained fully at commit. *)
  mutable staged : 'a array;
  mutable n_staged : int;
  mutable dirty : bool;
  mutable commit : unit -> unit;
  (* Consumer ticker re-armed whenever entries become visible (at
     commit), so a parked consumer cannot miss a delivery. *)
  mutable owner : Sim.handle;
}

let ceil_pow2 n =
  let r = ref 1 in
  while !r < n do
    r := !r * 2
  done;
  !r

(* Make room for [n] more committed entries ([x] seeds a fresh array). *)
let grow_ring t n x =
  if t.len + n > Array.length t.ring then begin
    let size = ceil_pow2 (max 8 (t.len + n)) in
    let nr = Array.make size x in
    for i = 0 to t.len - 1 do
      nr.(i) <- t.ring.((t.head + i) land t.mask)
    done;
    t.ring <- nr;
    t.mask <- size - 1;
    t.head <- 0
  end

let create ?(capacity = max_int) sim =
  assert (capacity > 0);
  let t =
    {
      capacity;
      sim;
      ring = [||];
      mask = -1;
      head = 0;
      len = 0;
      staged = [||];
      n_staged = 0;
      dirty = false;
      commit = (fun () -> ());
      owner = Sim.no_handle;
    }
  in
  t.commit <-
    (fun () ->
      t.dirty <- false;
      let n = t.n_staged in
      if n > 0 then begin
        grow_ring t n t.staged.(0);
        for i = 0 to n - 1 do
          t.ring.((t.head + t.len + i) land t.mask) <- t.staged.(i)
        done;
        t.len <- t.len + n;
        t.n_staged <- 0;
        (* The entries become visible next cycle (commit phase runs after
           tickers), which is exactly when the re-arm takes effect. *)
        Sim.rearm t.sim t.owner
      end);
  t

let set_owner t h = t.owner <- h

let length t = t.len
let occupancy t = t.len + t.n_staged
let is_empty t = t.len = 0
let is_full t = occupancy t >= t.capacity

let push t x =
  if is_full t then false
  else begin
    if t.n_staged >= Array.length t.staged then begin
      let ncap = if Array.length t.staged = 0 then 8 else 2 * Array.length t.staged in
      let ns = Array.make ncap x in
      Array.blit t.staged 0 ns 0 t.n_staged;
      t.staged <- ns
    end;
    t.staged.(t.n_staged) <- x;
    t.n_staged <- t.n_staged + 1;
    (* First staged push of the cycle: enlist in the simulator's dirty
       list so only written FIFOs pay a commit. *)
    if not t.dirty then begin
      t.dirty <- true;
      Sim.mark_dirty t.sim t.commit
    end;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.ring.(t.head) in
    t.head <- (t.head + 1) land t.mask;
    t.len <- t.len - 1;
    Some x
  end

let peek t = if t.len = 0 then None else Some t.ring.(t.head)

let clear t =
  (* A pending dirty entry stays enlisted; its commit finds an empty
     staging area and is a harmless no-op. *)
  t.head <- 0;
  t.len <- 0;
  t.n_staged <- 0
