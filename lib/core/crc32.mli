(** CRC-32 (IEEE 802.3, the zlib polynomial) over byte ranges.

    Durability needs end-to-end corruption detection: sidecar sections and
    journal records are framed with a checksum so a torn write or a flipped
    bit is detected at load time instead of surfacing later as a wrong
    identifier.  Table-driven, stdlib only; values fit in 32 bits and are
    returned as non-negative [int]s. *)

val bytes : bytes -> pos:int -> len:int -> int
(** Checksum of [len] bytes starting at [pos].
    @raise Invalid_argument if the range is out of bounds. *)

val string : string -> int
(** Checksum of a whole string. *)

(** {1 Running checksums}

    A checksum fed piece by piece, for input that is never laid out as
    bytes: [finish (add_varint (add_varint start a) b)] is the checksum
    of [a]'s and then [b]'s varint encoding. *)

val start : int
(** The running value before any byte. *)

val add_varint : int -> int -> int
(** [add_varint crc n] continues [crc] over the bytes that
    [Codec.write_varint] writes for [n] (non-negative). *)

val finish : int -> int
(** The checksum of what a running value has been fed. *)
