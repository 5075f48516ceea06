(** FPGA part catalog.

    The four parts of the paper's Table 1 (smallest/largest of Virtex-7
    and Virtex UltraScale+) plus common datacenter parts, with public
    logic-cell counts. Xilinx markets "logic cells" ≈ 1.6 × 6-input LUTs;
    the area model works in LUTs and converts. *)

type t = {
  name : string;
  family : string;
  year : int;
  logic_cells : int;
  bram_kb : int;  (** block RAM, kilobits *)
}

val xc7v585t : t
val xc7vh870t : t
val vu3p : t
val vu9p : t
(** The AWS F1 part. *)

val vu29p : t

val all : t list
(** Sorted by year then size. *)

val table1 : t list
(** Exactly the paper's Table 1 rows, in its order. *)

val find : string -> t option

val generation_scaling : unit -> float * float
(** [(smallest_ratio, largest_ratio)] between the Virtex-7 and Virtex
    UltraScale+ generations — the paper's "about 50%" and "3x" claims. *)
