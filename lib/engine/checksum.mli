(** Checksums used across the stack: CRC-32 (IEEE 802.3, as computed by
    Ethernet MACs) and Adler-32 (cheap software-style integrity check used
    by the accelerator library). Both are real implementations — frames
    and stored blocks carry checksums that actually validate. *)

val crc32 : bytes -> int32
(** IEEE CRC-32 (reflected, polynomial 0xEDB88320), as used by Ethernet
    FCS, gzip, zlib, over one whole buffer: every caller checksums a
    complete frame or block, so there is no running value to resume
    from. *)

val adler32 : bytes -> int32

val self_test : unit -> bool
(** Check the implementation against published test vectors. *)
