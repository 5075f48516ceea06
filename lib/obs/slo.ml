type severity = Page | Ticket

type alert = {
  a_cycle : int;
  a_severity : severity;
  a_burn_fast : float;
  a_burn_slow : float;
}

let target_pct = 99.0
let fast_windows = 2
let slow_windows = 12
let page_burn = 8.0
let ticket_burn = 2.0

type objective = {
  tenant : string;
  latency_cycles : int;
  window : int;
  min_samples : int;
}

let default_objective ?(window = 5_000) ?(min_samples = 20) ~tenant
    ~latency_cycles () =
  if window <= 0 then invalid_arg "Slo.default_objective: window must be > 0";
  { tenant; latency_cycles; window; min_samples }

type t = {
  obj : objective;
  (* ring of the last [slow_windows] closed windows: (good, bad) *)
  ring : (int * int) array;
  mutable closed : int;  (* windows ever closed *)
  mutable edge : int;  (* start cycle of the open window *)
  mutable w_good : int;
  mutable w_bad : int;
  (* whole-run totals *)
  mutable good : int;
  mutable bad : int;
  (* edge-triggered alert state with re-arm hysteresis *)
  mutable page_active : bool;
  mutable ticket_active : bool;
  mutable alerts : alert list;  (* newest first *)
  mutable first_below : int option;
  mutable subscribers : (alert -> unit) list;
}

let target_bp = int_of_float ((target_pct *. 100.0) +. 0.5)

let create obj =
  {
    obj;
    ring = Array.make slow_windows (0, 0);
    closed = 0;
    edge = 0;
    w_good = 0;
    w_bad = 0;
    good = 0;
    bad = 0;
    page_active = false;
    ticket_active = false;
    alerts = [];
    first_below = None;
    subscribers = [];
  }

let on_alert t f = t.subscribers <- f :: t.subscribers

(* Burn rate over the last [k] closed windows: observed bad fraction
   divided by the budgeted bad fraction (1 - target). Burn 1.0 spends
   the error budget exactly at the sustainable rate; burn 8 over the
   fast horizon is the classic page threshold. Returns 0 under the
   traffic guard — alerting on a handful of samples is noise. *)
let burn_over t k =
  let k = min k (min t.closed slow_windows) in
  let g = ref 0 and b = ref 0 in
  for i = 1 to k do
    let gi, bi = t.ring.((t.closed - i) mod slow_windows) in
    g := !g + gi;
    b := !b + bi
  done;
  let total = !g + !b in
  if total < t.obj.min_samples then 0.0
  else
    let bad_frac = float_of_int !b /. float_of_int total in
    let budget_frac = (100.0 -. target_pct) /. 100.0 in
    bad_frac /. budget_frac

let burn_rate t ~windows = burn_over t windows

let fire t severity ~cycle =
  let a =
    {
      a_cycle = cycle;
      a_severity = severity;
      a_burn_fast = burn_over t fast_windows;
      a_burn_slow = burn_over t slow_windows;
    }
  in
  t.alerts <- a :: t.alerts;
  List.iter (fun f -> f a) (List.rev t.subscribers)

(* Evaluate the multi-window rules at a window close. Page: the fast
   horizon AND the just-closed window both burn at page rate (the
   second clause makes the alert stop as soon as the bleeding stops).
   Ticket: slow horizon AND fast horizon at ticket rate. Both are
   edge-triggered and re-arm once their horizon drops back below the
   threshold. *)
let evaluate t ~cycle =
  let fast = burn_over t fast_windows in
  let slow = burn_over t slow_windows in
  let last = burn_over t 1 in
  if fast >= page_burn && last >= page_burn then begin
    if not t.page_active then begin
      t.page_active <- true;
      fire t Page ~cycle
    end
  end
  else if fast < page_burn then t.page_active <- false;
  if slow >= ticket_burn && fast >= ticket_burn then begin
    if not t.ticket_active then begin
      t.ticket_active <- true;
      fire t Ticket ~cycle
    end
  end
  else if slow < ticket_burn then t.ticket_active <- false

let close_window t =
  t.ring.(t.closed mod slow_windows) <- (t.w_good, t.w_bad);
  t.closed <- t.closed + 1;
  t.edge <- t.edge + t.obj.window;
  t.w_good <- 0;
  t.w_bad <- 0;
  evaluate t ~cycle:t.edge

let roll_upto t now =
  while t.edge + t.obj.window <= now do
    close_window t
  done

let check t ~now = roll_upto t now

let note_attainment t now =
  if t.first_below = None then begin
    let total = t.good + t.bad in
    if total >= t.obj.min_samples && t.good * 10_000 < target_bp * total then
      t.first_below <- Some now
  end

let observe_n t ~now ~good ~bad =
  roll_upto t now;
  t.w_good <- t.w_good + good;
  t.w_bad <- t.w_bad + bad;
  t.good <- t.good + good;
  t.bad <- t.bad + bad;
  note_attainment t now

let observe t ~now ~good =
  if good then observe_n t ~now ~good:1 ~bad:0
  else observe_n t ~now ~good:0 ~bad:1

let good_total t = t.good
let bad_total t = t.bad

let attainment_pct t =
  let total = t.good + t.bad in
  if total = 0 then 100.0
  else 100.0 *. float_of_int t.good /. float_of_int total

(* Budget remaining: of the (1 - target) error allowance over traffic so
   far, the unspent fraction, clamped at 0. *)
let budget_remaining_pct t =
  let total = t.good + t.bad in
  if total = 0 then 100.0
  else begin
    let allowed = (100.0 -. target_pct) /. 100.0 *. float_of_int total in
    if allowed <= 0.0 then if t.bad = 0 then 100.0 else 0.0
    else max 0.0 (100.0 *. (1.0 -. (float_of_int t.bad /. allowed)))
  end

let first_below_target t = t.first_below
let alerts t = List.rev t.alerts

let first_alert_cycle t =
  match List.rev t.alerts with [] -> None | a :: _ -> Some a.a_cycle

let severity_to_string = function Page -> "page" | Ticket -> "ticket"

(* ------------------------------------------------------------------ *)
(* Byte-stable report artifact: one record per tenant, alerts inline. *)

let buf_add_opt_int buf = function
  | None -> Buffer.add_string buf "null"
  | Some v -> Buffer.add_string buf (string_of_int v)

let report_json_string ts =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"tenants\": [\n";
  List.iteri
    (fun i t ->
      let o = t.obj in
      Buffer.add_string buf "    {\"tenant\": ";
      Export.buf_add_json_string buf o.tenant;
      Buffer.add_string buf ", \"target_pct\": ";
      Export.buf_add_float buf target_pct;
      Buffer.add_string buf
        (Printf.sprintf
           ", \"latency_cycles\": %d, \"window\": %d,\n     \"good\": %d, \
            \"bad\": %d, \"attainment_pct\": "
           o.latency_cycles o.window t.good t.bad);
      Export.buf_add_float buf (attainment_pct t);
      Buffer.add_string buf ", \"budget_remaining_pct\": ";
      Export.buf_add_float buf (budget_remaining_pct t);
      Buffer.add_string buf ",\n     \"burn_fast\": ";
      Export.buf_add_float buf (burn_over t fast_windows);
      Buffer.add_string buf ", \"burn_slow\": ";
      Export.buf_add_float buf (burn_over t slow_windows);
      Buffer.add_string buf ",\n     \"first_below_target_cycle\": ";
      buf_add_opt_int buf t.first_below;
      Buffer.add_string buf ", \"first_alert_cycle\": ";
      buf_add_opt_int buf (first_alert_cycle t);
      Buffer.add_string buf ",\n     \"alerts\": [";
      List.iteri
        (fun j a ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf "\n       ";
          Buffer.add_string buf
            (Printf.sprintf "{\"cycle\": %d, \"severity\": \"%s\", \
                             \"burn_fast\": "
               a.a_cycle
               (severity_to_string a.a_severity));
          Export.buf_add_float buf a.a_burn_fast;
          Buffer.add_string buf ", \"burn_slow\": ";
          Export.buf_add_float buf a.a_burn_slow;
          Buffer.add_char buf '}')
        (alerts t);
      if alerts t <> [] then Buffer.add_string buf "\n     ";
      Buffer.add_string buf "]}";
      if i < List.length ts - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    ts;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
