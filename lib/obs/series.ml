module Stats = Apiary_engine.Stats

(* A closed window's aggregates. The histogram is kept so percentiles
   can be rendered at export time and merged into the evicted aggregate
   when the ring wraps. *)
type rollup_i = {
  ri_start : int;
  ri_count : int;
  ri_sum : int;
  ri_min : int;  (* max_int when the window saw no samples *)
  ri_max : int;
  ri_hist : Stats.Histogram.t;
}

type rollup = {
  r_start : int;
  r_count : int;
  r_sum : int;
  r_min : int;  (* 0 when the window saw no samples *)
  r_max : int;
  r_p50 : int;
  r_p90 : int;
  r_p99 : int;
  r_p999 : int;
}

type metric = {
  m_name : string;
  mutable m_edge : int;  (* start cycle of the open window *)
  (* open-window aggregates *)
  mutable o_count : int;
  mutable o_sum : int;
  mutable o_min : int;
  mutable o_max : int;
  o_hist : Stats.Histogram.t;
  (* bounded ring of closed windows; slot = pushed mod capacity *)
  ring : rollup_i option array;
  mutable pushed : int;  (* windows ever closed *)
  (* aggregate of windows evicted from the ring *)
  mutable e_count : int;
  mutable e_sum : int;
  mutable e_min : int;
  mutable e_max : int;
  e_hist : Stats.Histogram.t;
  (* whole-run totals; conservation: evicted + ring + open = total *)
  mutable t_count : int;
  mutable t_sum : int;
}

type t = {
  window : int;
  capacity : int;
  metrics : (string, metric) Hashtbl.t;
}

let create ?(capacity = 128) ~window () =
  if window <= 0 then invalid_arg "Series.create: window must be positive";
  if capacity <= 0 then invalid_arg "Series.create: capacity must be positive";
  { window; capacity; metrics = Hashtbl.create 16 }

let window t = t.window
let capacity t = t.capacity

let metric t name =
  match Hashtbl.find_opt t.metrics name with
  | Some m -> m
  | None ->
    let m =
      {
        m_name = name;
        m_edge = 0;
        o_count = 0;
        o_sum = 0;
        o_min = max_int;
        o_max = 0;
        o_hist = Stats.Histogram.create (name ^ ".open");
        ring = Array.make t.capacity None;
        pushed = 0;
        e_count = 0;
        e_sum = 0;
        e_min = max_int;
        e_max = 0;
        e_hist = Stats.Histogram.create (name ^ ".evicted");
        t_count = 0;
        t_sum = 0;
      }
    in
    Hashtbl.replace t.metrics name m;
    m

(* Close the open window [m_edge, m_edge+window): snapshot the open
   aggregates into a fresh ring entry (empty windows included, so the
   series stays contiguous in time), evicting the oldest entry into the
   evicted aggregate when the ring is full. *)
let close_window t m =
  let hist = Stats.Histogram.create (m.m_name ^ ".w") in
  Stats.Histogram.merge_into ~src:m.o_hist ~dst:hist;
  let r =
    {
      ri_start = m.m_edge;
      ri_count = m.o_count;
      ri_sum = m.o_sum;
      ri_min = m.o_min;
      ri_max = m.o_max;
      ri_hist = hist;
    }
  in
  let slot = m.pushed mod t.capacity in
  (match m.ring.(slot) with
  | None -> ()
  | Some old ->
    m.e_count <- m.e_count + old.ri_count;
    m.e_sum <- m.e_sum + old.ri_sum;
    if old.ri_min < m.e_min then m.e_min <- old.ri_min;
    if old.ri_max > m.e_max then m.e_max <- old.ri_max;
    Stats.Histogram.merge_into ~src:old.ri_hist ~dst:m.e_hist);
  m.ring.(slot) <- Some r;
  m.pushed <- m.pushed + 1;
  m.m_edge <- m.m_edge + t.window;
  m.o_count <- 0;
  m.o_sum <- 0;
  m.o_min <- max_int;
  m.o_max <- 0;
  Stats.Histogram.reset m.o_hist

let close_metric_upto t m now =
  while m.m_edge + t.window <= now do
    close_window t m
  done

let observe t ~now name v =
  let m = metric t name in
  close_metric_upto t m now;
  let v = max 0 v in
  m.o_count <- m.o_count + 1;
  m.o_sum <- m.o_sum + v;
  if v < m.o_min then m.o_min <- v;
  if v > m.o_max then m.o_max <- v;
  Stats.Histogram.record m.o_hist v;
  m.t_count <- m.t_count + 1;
  m.t_sum <- m.t_sum + v

let close_upto t now =
  Hashtbl.iter (fun _ m -> close_metric_upto t m now) t.metrics

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.metrics []
  |> List.sort compare

let ring_rollups m capacity =
  let first = max 0 (m.pushed - capacity) in
  let out = ref [] in
  for i = m.pushed - 1 downto first do
    match m.ring.(i mod capacity) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  !out

let view (r : rollup_i) =
  {
    r_start = r.ri_start;
    r_count = r.ri_count;
    r_sum = r.ri_sum;
    r_min = (if r.ri_count = 0 then 0 else r.ri_min);
    r_max = r.ri_max;
    r_p50 = Stats.Histogram.percentile r.ri_hist 50.0;
    r_p90 = Stats.Histogram.percentile r.ri_hist 90.0;
    r_p99 = Stats.Histogram.percentile r.ri_hist 99.0;
    r_p999 = Stats.Histogram.percentile r.ri_hist 99.9;
  }

let rollups t name =
  match Hashtbl.find_opt t.metrics name with
  | None -> []
  | Some m -> List.map view (ring_rollups m t.capacity)

let total_count t name =
  match Hashtbl.find_opt t.metrics name with
  | None -> 0
  | Some m -> m.t_count

let total_sum t name =
  match Hashtbl.find_opt t.metrics name with
  | None -> 0
  | Some m -> m.t_sum

let open_count t name =
  match Hashtbl.find_opt t.metrics name with
  | None -> 0
  | Some m -> m.o_count

let closed t name =
  match Hashtbl.find_opt t.metrics name with
  | None -> 0
  | Some m -> m.pushed

let evicted t name =
  match Hashtbl.find_opt t.metrics name with
  | None -> (0, 0, 0)
  | Some m -> (max 0 (m.pushed - t.capacity), m.e_count, m.e_sum)

(* ------------------------------------------------------------------ *)
(* Export: all-integer JSON, metrics sorted by name — byte-stable for a
   fixed capture. *)

let buf_add_rollup buf r =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"start\": %d, \"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \
        \"p50\": %d, \"p90\": %d, \"p99\": %d, \"p999\": %d}"
       r.r_start r.r_count r.r_sum r.r_min r.r_max r.r_p50 r.r_p90 r.r_p99
       r.r_p999)

let json_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"window\": %d,\n  \"capacity\": %d,\n  \"metrics\": [\n"
       t.window t.capacity);
  let metric_names = names t in
  List.iteri
    (fun i name ->
      let m = Hashtbl.find t.metrics name in
      let ev_windows, ev_count, ev_sum = evicted t name in
      Buffer.add_string buf "    {\"name\": ";
      Export.buf_add_json_string buf name;
      Buffer.add_string buf
        (Printf.sprintf
           ",\n     \"total_count\": %d, \"total_sum\": %d,\n     \
            \"evicted_windows\": %d, \"evicted_count\": %d, \"evicted_sum\": \
            %d,\n     \"open_count\": %d, \"open_sum\": %d,\n     \"windows\": [\n"
           m.t_count m.t_sum ev_windows ev_count ev_sum m.o_count m.o_sum);
      let rs = rollups t name in
      List.iteri
        (fun j r ->
          Buffer.add_string buf "       ";
          buf_add_rollup buf r;
          if j < List.length rs - 1 then Buffer.add_char buf ',';
          Buffer.add_char buf '\n')
        rs;
      Buffer.add_string buf "     ]}";
      if i < List.length metric_names - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    metric_names;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json t path =
  let oc = open_out path in
  output_string oc (json_string t);
  close_out oc
