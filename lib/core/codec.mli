(** Wire encoding of identifiers.

    Identifier size is a first-order storage cost for a numbering scheme —
    every secondary index and every edge record carries labels — and one of
    the paper's complaints about the original UID is precisely that its
    values outgrow fixed-width columns.  This module provides a compact
    LEB128-style variable-length encoding for ruid identifiers (and size
    accounting for the other schemes' label shapes), with exact decode
    round-trips. *)

val varint_size : int -> int
(** Bytes of the LEB128 encoding of a non-negative integer. *)

val write_varint : Buffer.t -> int -> unit
val read_varint : bytes -> pos:int -> int * int
(** [(value, next position)].  @raise Invalid_argument on truncated input,
    and on over-long encodings whose value would not fit a native [int]
    (continuation past the ninth byte, or bits above bit 62). *)

val read_varint_at : bytes -> int ref -> int
(** {!read_varint} at a cursor: reads at [!pos] and advances [pos] past
    the varint, allocating nothing (decoders calling it per node).
    @raise Invalid_argument as {!read_varint}, leaving [pos] unchanged. *)

val encode_ruid2 : Ruid2.id -> bytes
val decode_ruid2 : bytes -> Ruid2.id
(** @raise Invalid_argument on malformed input. *)

val ruid2_size : Ruid2.id -> int

val encode_mruid : Mruid.id -> bytes
val decode_mruid : bytes -> Mruid.id
val mruid_size : Mruid.id -> int

val bignat_size : Bignum.Bignat.t -> int
(** Bytes of a length-prefixed base-128 encoding of a bignum (the original
    UID's storage shape). *)
