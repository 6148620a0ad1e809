(** One string per distinct tag and attribute name of a parse.

    A lexer looks a name up by the bytes it has just scanned, before any
    copy: a name seen before costs no allocation, and every element with
    that name keeps the same string. *)

type t

val create : unit -> t

val intern : t -> bytes -> int -> int -> string
(** [intern names buf off len] is the table's string equal to
    [Bytes.sub_string buf off len], made and added on the first call for
    those bytes.  [len] must be positive. *)
