(* The accelerator-facing view of a tile. See shell.mli. *)

type t = Monitor.t
type conn = Monitor.conn = { cap : Apiary_cap.Store.handle; peer : Message.addr; service : string }

type mem_handle = Monitor.mem_handle = {
  mcap : Apiary_cap.Store.handle;
  base : int;
  len : int;
}

type rpc_error = Monitor.rpc_error = Timeout | Nacked of string | Denied of string

let rpc_error_to_string = Monitor.rpc_error_to_string

type behavior = Monitor.behavior = {
  bname : string;
  on_boot : t -> unit;
  on_message : t -> Message.t -> unit;
  on_tick : (t -> unit) option;
}

let behavior ?on_tick ?(on_boot = fun _ -> ()) ?(on_message = fun _ _ -> ()) bname =
  { bname; on_boot; on_message; on_tick }

let tile = Monitor.tile
let sim = Monitor.sim
let now t = Apiary_engine.Sim.now (Monitor.sim t)
let obs_board = Monitor.obs_board
let self_addr = Monitor.self_addr
let rng = Monitor.rng
let log = Monitor.log
let register_service = Monitor.register_service
let lookup = Monitor.lookup
let connect = Monitor.connect
let send_data = Monitor.send_data
let request = Monitor.request
let respond = Monitor.respond
let alloc = Monitor.alloc
let free = Monitor.free
let read_mem = Monitor.read_mem
let write_mem = Monitor.write_mem
let grant_mem = Monitor.grant_mem
let mem_handle_of_grant = Monitor.mem_handle_of_grant
let busy = Monitor.busy
type grant = Monitor.grant =
  | Accept
  | Accept_limited of { rate : float; burst : int }
  | Refuse

let set_connect_policy = Monitor.set_connect_policy
let set_grant_policy = Monitor.set_grant_policy
let set_on_error = Monitor.set_on_error
let raise_fault = Monitor.raise_fault
let send_raw = Monitor.send_raw
