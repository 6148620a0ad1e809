(** The table K of global parameters (Section 2.1).

    One row per UID-local area: the area's global index, the local index of
    the area's root within the {e upper} area, and the maximal fan-out used
    to enumerate the area.  Together with kappa, this is the entire state
    [rparent] needs, and it is small enough to pin in main memory — which is
    what makes parent derivation I/O-free (Lemma 1). *)

type row = { global : int; root_local : int; fanout : int }

type t

val make : row list -> t
(** @raise Invalid_argument on duplicate global indices. *)

val find : t -> int -> row option
(** By global index, O(log areas). *)

val fanout : t -> int -> int
(** @raise Not_found if the area does not exist. *)

val root_local : t -> int -> int
(** @raise Not_found if the area does not exist. *)

val mem : t -> int -> bool

val rows : t -> row list
(** In increasing global-index order. *)

val size : t -> int
(** Number of areas. *)

val frame_children_rows : t -> parent_global:int -> kappa:int -> row list
(** Rows whose global index falls in the frame-child identifier range of
    [parent_global]: the child areas, in increasing global order.
    O(log areas + children). *)

val area_rooted_at : t -> parent_global:int -> kappa:int -> local:int -> int option
(** [area_rooted_at t ~parent_global ~kappa ~local] finds the global index
    of the area whose root sits at [local] within area [parent_global] —
    i.e. scans the frame-child identifier range of [parent_global] in the
    kappa-ary frame enumeration.  This is the existence test used by
    [rchildren] (Section 3.5). *)

val with_row : t -> row -> t
(** Functional update: insert or replace the row for [row.global].
    O(log areas): the result shares all but one path with [t]. *)

val without : t -> int -> t
(** Remove the row for a global index (no-op when absent). *)

val memory_words : t -> int
(** Footprint of the in-memory structure, in machine words: 3 per row. *)

val pp : Format.formatter -> t -> unit
