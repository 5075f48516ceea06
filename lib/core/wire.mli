(** Binary wire codec for Apiary messages.

    The simulator moves messages as OCaml values for speed, but the codec
    defines the concrete bit-level interface a hardware monitor would
    implement, gives honest size accounting, and is exercised by roundtrip
    property tests and the serialization microbenchmarks. *)

val encode : Message.t -> bytes

val decode : bytes -> (Message.t, string) result
(** Inverse of {!encode}. Fails (rather than raising) on truncated or
    corrupt input — malformed network input must never crash the OS. *)

