let cpu_core_watts = 12.0
let fpga_dynamic_watts = 12.0
let pcie_pj_per_byte = 15.0
let nic_pj_per_byte = 5.0
let cycle_seconds = 4e-9

let joules_to_uj j = j *. 1e6
let pj_to_uj p = p *. 1e-6

let hosted_uj ~cpu_cycles ~accel_cycles ~pcie_bytes ~net_bytes =
  let cpu = cpu_core_watts *. float_of_int cpu_cycles *. cycle_seconds in
  let fpga = fpga_dynamic_watts *. float_of_int accel_cycles *. cycle_seconds in
  let pcie = pj_to_uj (pcie_pj_per_byte *. float_of_int pcie_bytes) in
  let nic = pj_to_uj (nic_pj_per_byte *. float_of_int net_bytes) in
  joules_to_uj (cpu +. fpga) +. pcie +. nic

let direct_uj ~fpga_cycles ~net_bytes =
  let fpga = fpga_dynamic_watts *. float_of_int fpga_cycles *. cycle_seconds in
  let nic = pj_to_uj (nic_pj_per_byte *. float_of_int net_bytes) in
  joules_to_uj fpga +. nic
