module Stats = Apiary_engine.Stats

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* JSON has no Infinity/NaN; an untouched gauge's min/max render as null. *)
let buf_add_float b x =
  if Float.is_finite x then Buffer.add_string b (Printf.sprintf "%.6g" x)
  else Buffer.add_string b "null"

(* pid 0 = rack-level (board -1); pid b+1 = board b. *)
let pid_of_board board = board + 1

let add_args b args =
  Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      buf_add_json_string b v)
    args;
  Buffer.add_char b '}'

let add_event b (ev : Span.event) =
  Buffer.add_string b "{\"name\":";
  buf_add_json_string b ev.name;
  Buffer.add_string b ",\"cat\":";
  buf_add_json_string b ev.cat;
  let ph, dur =
    match ev.ph with
    | Span.Mark -> ("i", None)
    | Span.Dur -> if ev.dur < 0 then ("B", None) else ("X", Some ev.dur)
  in
  Buffer.add_string b (Printf.sprintf ",\"ph\":\"%s\"" ph);
  Buffer.add_string b
    (Printf.sprintf ",\"pid\":%d,\"tid\":%d,\"ts\":%d" (pid_of_board ev.board)
       ev.track ev.ts);
  (match dur with
  | Some d -> Buffer.add_string b (Printf.sprintf ",\"dur\":%d" d)
  | None -> ());
  if ev.ph = Span.Mark then Buffer.add_string b ",\"s\":\"t\"";
  let args =
    if ev.corr <> 0 then ("corr", string_of_int ev.corr) :: ev.args else ev.args
  in
  if args <> [] then add_args b args;
  Buffer.add_char b '}'

(* Same-cycle ties break by board, then recording order. A board's
   events are all recorded by its own engine member, so their relative
   order is the same in every engine mode; the global interleaving of
   different boards is not. *)
let chrome_trace_string ?(dropped = 0) events =
  let events =
    List.stable_sort
      (fun (a : Span.event) (b : Span.event) ->
        if a.ts <> b.ts then compare a.ts b.ts
        else if a.board <> b.board then compare a.board b.board
        else compare a.seq b.seq)
      events
  in
  (* Every (board, track) pair that appears gets a process_name record so
     Perfetto labels the rows; sorted for byte-stable output. *)
  let pids =
    List.fold_left
      (fun acc (e : Span.event) ->
        if List.mem e.board acc then acc else e.board :: acc)
      [] events
    |> List.sort compare
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n"
  in
  (* A truncated capture must say so in the artifact itself, not only in
     the metrics dump: stamp the drop count as a metadata record. *)
  if dropped > 0 then begin
    sep ();
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":0,\"args\":{\"dropped\":\"%d\"}}"
         dropped)
  end;
  List.iter
    (fun board ->
      sep ();
      let label =
        if board < 0 then "rack" else Printf.sprintf "board %d" board
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
           (pid_of_board board) label))
    pids;
  List.iter
    (fun ev ->
      sep ();
      add_event b ev)
    events;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_file ~path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let chrome_trace ?dropped ~path events =
  write_file ~path (chrome_trace_string ?dropped events)

let add_instrument b = function
  | Registry.Counter c ->
    Buffer.add_string b
      (Printf.sprintf "{\"type\":\"counter\",\"value\":%d}"
         (Stats.Counter.value c))
  | Registry.Gauge g ->
    Buffer.add_string b "{\"type\":\"gauge\",\"value\":";
    buf_add_float b (Stats.Gauge.value g);
    Buffer.add_string b ",\"min\":";
    buf_add_float b (Stats.Gauge.min g);
    Buffer.add_string b ",\"max\":";
    buf_add_float b (Stats.Gauge.max g);
    Buffer.add_char b '}'
  | Registry.Histogram h ->
    let n = Stats.Histogram.count h in
    Buffer.add_string b
      (Printf.sprintf "{\"type\":\"histogram\",\"count\":%d,\"sum\":%d" n
         (Stats.Histogram.sum h));
    Buffer.add_string b ",\"mean\":";
    buf_add_float b (Stats.Histogram.mean h);
    Buffer.add_string b
      (Printf.sprintf ",\"p50\":%d,\"p90\":%d,\"p99\":%d,\"max\":%d}"
         (Stats.Histogram.percentile h 50.0)
         (Stats.Histogram.percentile h 90.0)
         (Stats.Histogram.percentile h 99.0)
         (if n = 0 then 0 else Stats.Histogram.max_value h))

let metrics_json_string snapshot =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (name, inst) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n";
      buf_add_json_string b name;
      Buffer.add_char b ':';
      add_instrument b inst)
    snapshot;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let metrics_json ~path snapshot = write_file ~path (metrics_json_string snapshot)
