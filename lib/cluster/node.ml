module Sim = Apiary_engine.Sim
module Kernel = Apiary_core.Kernel
module Switch = Apiary_net.Switch
module Netsvc = Apiary_net.Netsvc
module Board = Apiary_apps.Board

type t = {
  id : int;
  port : int;  (* ToR switch port the board's MAC is wired to *)
  board : Board.t;
  mutable free_tiles : int list;
  mutable up : bool;
}

(* Locally administered block distinct from the single-board constant
   (…F0CA) and the client block (…0C0000+). *)
let mac_of_id id = 0x02_0000_0B0000 + id

let create ?kernel_cfg ~ext_link sim ~switch ~id ~port =
  let board =
    Board.create ?kernel_cfg ~attach:(switch, port) ~mac_addr:(mac_of_id id)
      ~ext_link sim
  in
  (* Stamp this board's id on its kernel (flight ring and mesh), so its
     monitor and NoC spans land on this board's process row in exported
     traces and its postmortem dumps name it. *)
  Kernel.set_obs_board board.Board.kernel id;
  { id; port; board; free_tiles = Board.user_tiles board; up = true }

let id t = t.id
let port t = t.port
let board t = t.board
let kernel t = t.board.Board.kernel
let sim t = t.board.Board.sim
let mac_addr t = t.board.Board.fpga_mac_addr
let net_stats t = t.board.Board.net_stats
let up t = t.up

let alloc_tile t =
  match t.free_tiles with
  | [] -> None
  | tile :: rest ->
    t.free_tiles <- rest;
    Some tile

let free_tiles t = t.free_tiles
