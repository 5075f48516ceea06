(* Per-board flight recorder: a bounded ring of the most recent
   observability events, always armed but recording only when enabled
   (off by default, so runs without introspection are byte-identical).
   On a fault or a watchdog trip the ring is frozen into a postmortem
   JSON dump — the black box that turns a silent fail-stop into an
   actionable event sequence. *)

(* The ring holds span events: each a [Mark] on the ring's board, with
   the tile as its track. Slots past [total] hold [empty]. *)
type t = {
  ring : Span.event array;
  mutable next : int;
  mutable total : int;
  mutable on : bool;
  mutable board : int;
}

let empty =
  { Span.name = ""; cat = ""; corr = 0; board = -1; track = 0; ts = 0; dur = 0;
    ph = Span.Mark; args = [] }

let create ?(capacity = 256) () =
  assert (capacity > 0);
  { ring = Array.make capacity empty; next = 0; total = 0; on = false; board = -1 }

let set_enabled t b = t.on <- b
let enabled t = t.on
let set_board t id = t.board <- id
let board t = t.board
let capacity t = Array.length t.ring
let total t = t.total

(* One reading of APIARY_FLIGHT for every ring (boards and the
   scheduler controller), so they are all armed alike. *)
let of_env () =
  let t = create () in
  if Sys.getenv_opt "APIARY_FLIGHT" = Some "1" then set_enabled t true;
  t

let record t ~ts ~tile ~cat ~name ?(corr = 0) ?(args = []) () =
  if t.on then begin
    t.ring.(t.next) <-
      { Span.name; cat; corr; board = t.board; track = tile; ts; dur = 0;
        ph = Span.Mark; args };
    t.next <- (t.next + 1) mod Array.length t.ring;
    t.total <- t.total + 1
  end

(* Until the ring wraps, [next = total] and the oldest event is in slot
   0; after, it is in slot [next]. *)
let entries t =
  let n = Array.length t.ring in
  let kept = min t.total n in
  List.init kept (fun i -> t.ring.((t.next - kept + i + n) mod n))

(* ------------------------------------------------------------------ *)
(* Postmortem JSON. Byte-stable: entries in ring order, args in
   recording order, no floats. *)

let dump_json t ~reason ~cycle =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"board\": ";
  Buffer.add_string buf (string_of_int t.board);
  Buffer.add_string buf ",\n  \"reason\": ";
  Export.buf_add_json_string buf reason;
  Buffer.add_string buf ",\n  \"cycle\": ";
  Buffer.add_string buf (string_of_int cycle);
  Buffer.add_string buf ",\n  \"capacity\": ";
  Buffer.add_string buf (string_of_int (capacity t));
  Buffer.add_string buf ",\n  \"recorded\": ";
  Buffer.add_string buf (string_of_int t.total);
  Buffer.add_string buf ",\n  \"events\": [";
  let first = ref true in
  List.iter
    (fun (e : Span.event) ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf "\n    {\"ts\": ";
      Buffer.add_string buf (string_of_int e.ts);
      Buffer.add_string buf ", \"tile\": ";
      Buffer.add_string buf (string_of_int e.track);
      Buffer.add_string buf ", \"cat\": ";
      Export.buf_add_json_string buf e.cat;
      Buffer.add_string buf ", \"name\": ";
      Export.buf_add_json_string buf e.name;
      if e.corr <> 0 then begin
        Buffer.add_string buf ", \"corr\": ";
        Buffer.add_string buf (string_of_int e.corr)
      end;
      if e.args <> [] then begin
        Buffer.add_string buf ", \"args\": {";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ", ";
            Export.buf_add_json_string buf k;
            Buffer.add_string buf ": ";
            Export.buf_add_json_string buf v)
          e.args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    (entries t);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let write_dump t ~reason ~cycle path =
  let oc = open_out path in
  output_string oc (dump_json t ~reason ~cycle);
  close_out oc
