type t = Xy | Yx

let step_x ~(x : int) ~dx =
  if dx > x then Port.index Port.East
  else if dx < x then Port.index Port.West
  else -1

let step_y ~(y : int) ~dy =
  if dy > y then Port.index Port.South
  else if dy < y then Port.index Port.North
  else -1

let next_index t ~x ~y ~dx ~dy =
  let sx = step_x ~x ~dx and sy = step_y ~y ~dy in
  let local = Port.index Port.Local in
  match t with
  | Xy -> if sx >= 0 then sx else if sy >= 0 then sy else local
  | Yx -> if sy >= 0 then sy else if sx >= 0 then sx else local

let next_port t ~(at : Coord.t) ~(dst : Coord.t) =
  Port.of_index (next_index t ~x:at.x ~y:at.y ~dx:dst.x ~dy:dst.y)

