(* The benchmark's own host-time span recorder.

   Spans are recorded only from the benchmark's files, around each call
   it makes into a layer (setup calls, run slices, exports) and around
   the callbacks it hands to layers (request generators, outcome
   hooks). Nothing inside lib/ is instrumented. A layer's self time is
   its spans' durations minus the parts covered by their child spans.

   When tracing is off, [span] is a plain call: one branch, no clock
   read, no allocation. *)

type span = {
  layer : string;
  name : string;
  t0 : float;
  mutable t1 : float;
  parent : int;  (* index into [spans], -1 for a root *)
  mutable child_s : float;  (* time covered by direct children *)
}

let on = ref false
let spans : span array ref = ref [||]
let n = ref 0
let current = ref (-1)

let reset () =
  spans := [||];
  n := 0;
  current := -1

let push s =
  if !n = Array.length !spans then begin
    let grown = Array.make (max 1024 (2 * !n)) s in
    Array.blit !spans 0 grown 0 !n;
    spans := grown
  end;
  !spans.(!n) <- s;
  incr n;
  !n - 1

let span ~layer ~name f =
  if not !on then f ()
  else begin
    let parent = !current in
    let i =
      push { layer; name; t0 = Unix.gettimeofday (); t1 = 0.0; parent; child_s = 0.0 }
    in
    current := i;
    let close () =
      let s = !spans.(i) in
      s.t1 <- Unix.gettimeofday ();
      if parent >= 0 then begin
        let p = !spans.(parent) in
        p.child_s <- p.child_s +. (s.t1 -. s.t0)
      end;
      current := parent
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

let all () = Array.to_list (Array.sub !spans 0 !n)
let dur s = s.t1 -. s.t0

(* Total duration of the spans matching [layer] (and [name], if given). *)
let total ?name layer =
  List.fold_left
    (fun acc s ->
      if s.layer = layer && (name = None || name = Some s.name) then acc +. dur s
      else acc)
    0.0 (all ())

let durations ~layer ~name =
  List.filter_map
    (fun s -> if s.layer = layer && s.name = name then Some (dur s) else None)
    (all ())

(* Self time summed per layer. *)
let self_time layer =
  List.fold_left
    (fun acc s -> if s.layer = layer then acc +. (dur s -. s.child_s) else acc)
    0.0 (all ())

(* Chrome trace_event JSON (loadable in Perfetto): one track per
   layer, microsecond timestamps relative to the first span. At most
   [cap] spans are written; the self-time figures above always use all
   of them, and the file says how many were left out. *)
let write_chrome ~path ~cap =
  let all = all () in
  let base = match all with [] -> 0.0 | s :: _ -> s.t0 in
  let b = Buffer.create (1 lsl 16) in
  let tids = ref [] in
  let tid layer =
    match List.assoc_opt layer !tids with
    | Some t -> t
    | None ->
      let t = List.length !tids in
      tids := (layer, t) :: !tids;
      t
  in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i < cap then begin
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b
          "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
          s.name s.layer (tid s.layer)
          ((s.t0 -. base) *. 1e6)
          (dur s *. 1e6)
      end)
    all;
  Printf.bprintf b "],\"spans\":%d,\"spans_written\":%d}\n" (List.length all)
    (min cap (List.length all));
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc
