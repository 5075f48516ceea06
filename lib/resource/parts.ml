type t = {
  name : string;
  family : string;
  year : int;
  logic_cells : int;
  bram_kb : int;
}

let xc7v585t =
  { name = "XC7V585T"; family = "Virtex 7"; year = 2010; logic_cells = 582_720; bram_kb = 28_620 }

let xc7vh870t =
  { name = "XC7VH870T"; family = "Virtex 7"; year = 2010; logic_cells = 876_160; bram_kb = 50_760 }

let vu3p =
  { name = "VU3P"; family = "Virtex UltraScale+"; year = 2016; logic_cells = 862_000; bram_kb = 25_344 }

let vu9p =
  { name = "VU9P"; family = "Virtex UltraScale+"; year = 2017; logic_cells = 2_586_000; bram_kb = 75_900 }

let vu29p =
  { name = "VU29P"; family = "Virtex UltraScale+"; year = 2018; logic_cells = 3_780_000; bram_kb = 66_000 }

let all = [ xc7v585t; xc7vh870t; vu3p; vu9p; vu29p ]
let table1 = [ xc7v585t; xc7vh870t; vu3p; vu29p ]
let find name = List.find_opt (fun p -> p.name = name) all

let generation_scaling () =
  let small = float_of_int vu3p.logic_cells /. float_of_int xc7v585t.logic_cells in
  let large = float_of_int vu29p.logic_cells /. float_of_int xc7vh870t.logic_cells in
  (small, large)
