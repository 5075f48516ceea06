(** Energy accounting for the direct-attached vs host-mediated comparison
    (paper §1: bypassing the CPU "further reduces energy").

    The model charges active power over measured busy time plus per-byte
    transfer energy. Absolute joules matter less than the shape: which
    path burns CPU-seconds per request. E2 prices both paths with one
    set of representative published figures, so they are constants:

    - a busy server core draws 12 W;
    - an FPGA SmartNIC-class board draws ~30 W, of which 12 W is
      dynamic activity attributable to the work;
    - moving a byte over PCIe costs 15 pJ, and NIC processing 5 pJ;
    - a cycle is 4 ns (the 250 MHz fabric clock). *)

val hosted_uj :
  cpu_cycles:int -> accel_cycles:int -> pcie_bytes:int -> net_bytes:int -> float
(** Microjoules for a batch of hosted-path requests given measured busy
    cycles and bytes moved. *)

val direct_uj : fpga_cycles:int -> net_bytes:int -> float
(** Microjoules for the direct-attached path: FPGA busy time (monitors +
    NoC + accelerator) and network bytes; no CPU, no PCIe. *)
