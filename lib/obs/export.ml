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

(* The trace export runs to megabytes, so it is written twice: once
   counting bytes, once into a string of exactly that length. The
   result is then the only large block it allocates. A growing [Buffer]
   would leave each outgrown copy, up to twice the output in all, for
   the major GC to free, and the peak heap would depend on how many of
   them it had swept by then. *)
type out = { fill : bool; bytes : Bytes.t; mutable pos : int }

let out_string o s =
  let len = String.length s in
  if o.fill then Bytes.blit_string s 0 o.bytes o.pos len;
  o.pos <- o.pos + len

let out_char o c =
  if o.fill then Bytes.set o.bytes o.pos c;
  o.pos <- o.pos + 1

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* [string_of_int n], written in place for [n >= 0]. *)
let out_int o n =
  if n < 0 then out_string o (string_of_int n)
  else begin
    let d = digits n in
    if o.fill then begin
      let v = ref n in
      for i = o.pos + d - 1 downto o.pos do
        Bytes.set o.bytes i (Char.chr (48 + (!v mod 10)));
        v := !v / 10
      done
    end;
    o.pos <- o.pos + d
  end

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* A plain loop: [String.exists] would allocate a closure per string,
   and the trace export checks every name, cat and arg twice. *)
let rec any_escape s i =
  i < String.length s && (needs_escape s.[i] || any_escape s (i + 1))

let out_json_string o s =
  if any_escape s 0 then begin
    let b = Buffer.create (String.length s + 8) in
    buf_add_json_string b s;
    out_string o (Buffer.contents b)
  end
  else begin
    out_char o '"';
    out_string o s;
    out_char o '"'
  end

let out_event o (ev : Span.event) =
  out_string o "{\"name\":";
  out_json_string o ev.name;
  out_string o ",\"cat\":";
  out_json_string o ev.cat;
  let closed = ev.ph = Span.Dur && ev.dur >= 0 in
  out_string o
    (match ev.ph with
    | Span.Mark -> ",\"ph\":\"i\""
    | Span.Dur -> if closed then ",\"ph\":\"X\"" else ",\"ph\":\"B\"");
  out_string o ",\"pid\":";
  out_int o (pid_of_board ev.board);
  out_string o ",\"tid\":";
  out_int o ev.track;
  out_string o ",\"ts\":";
  out_int o ev.ts;
  if closed then begin
    out_string o ",\"dur\":";
    out_int o ev.dur
  end;
  if ev.ph = Span.Mark then out_string o ",\"s\":\"t\"";
  if ev.corr <> 0 || ev.args <> [] then begin
    out_string o ",\"args\":{";
    if ev.corr <> 0 then begin
      out_string o "\"corr\":\"";
      out_int o ev.corr;
      out_char o '"'
    end;
    List.iteri
      (fun i (k, v) ->
        if i > 0 || ev.corr <> 0 then out_char o ',';
        out_json_string o k;
        out_char o ':';
        out_json_string o v)
      ev.args;
    out_char o '}'
  end;
  out_char o '}'

let rec mem_board (b : int) = function
  | [] -> false
  | x :: rest -> x = b || mem_board b rest

(* Same-cycle ties break by board, then input order: the sort is
   stable. A board's events are all recorded by its own engine member,
   so their relative order is the same in every engine mode; the global
   interleaving of different boards is not. *)
let chrome_trace_string ?(dropped = 0) events =
  let events = Array.of_list events in
  Array.stable_sort
    (fun (a : Span.event) (b : Span.event) ->
      if a.ts <> b.ts then compare a.ts b.ts else compare a.board b.board)
    events;
  (* Every (board, track) pair that appears gets a process_name record so
     Perfetto labels the rows; sorted for byte-stable output. *)
  let pids =
    Array.fold_left
      (fun acc (e : Span.event) ->
        if mem_board e.board acc then acc else e.board :: acc)
      [] events
    |> List.sort Int.compare
  in
  let write o =
    out_string o "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    let first = ref true in
    let sep () =
      if !first then first := false else out_char o ',';
      out_char o '\n'
    in
    (* A truncated capture must say so in the artifact itself, not only
       in the metrics dump: stamp the drop count as a metadata record. *)
    if dropped > 0 then begin
      sep ();
      out_string o
        "{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":0,\"args\":{\"dropped\":\"";
      out_int o dropped;
      out_string o "\"}}"
    end;
    List.iter
      (fun board ->
        sep ();
        out_string o "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
        out_int o (pid_of_board board);
        out_string o ",\"args\":{\"name\":\"";
        if board < 0 then out_string o "rack"
        else begin
          out_string o "board ";
          out_int o board
        end;
        out_string o "\"}}")
      pids;
    Array.iter
      (fun ev ->
        sep ();
        out_event o ev)
      events;
    out_string o "\n]}\n"
  in
  let counted = { fill = false; bytes = Bytes.empty; pos = 0 } in
  write counted;
  let o = { fill = true; bytes = Bytes.create counted.pos; pos = 0 } in
  write o;
  Bytes.unsafe_to_string o.bytes

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
