(** Array-backed document-order index over a numbered document.

    One pass over the tree produces (a) a dense [serial -> preorder rank]
    array, (b) per-node subtree extents [(rank, rank_end)] so every
    ancestor/descendant and before/after test is two integer comparisons,
    and (c) per-tag posting arrays sorted by rank with O(1) cardinality.
    This is the sorted-array substrate the structural-join literature
    (stack-tree over interval labels) assumes; {!Engine_ruid} drives its
    range-based name tests from it and {!Rjoin.Structural_join.extent_merge}
    consumes the extents.

    The index is a snapshot: rebuild it after structural updates.  All
    lookups on nodes outside the snapshot raise [Invalid_argument] — a
    stale index is a hard error, never a silent mis-sort. *)

type t

val build : Ruid.Ruid2.t -> t
(** Index every node of the numbered tree (elements, text, comments) in
    document order. *)

val size : t -> int
(** Number of indexed nodes. *)

val rank : t -> Rxml.Dom.t -> int
(** Preorder rank of a node, [0 .. size - 1].
    @raise Invalid_argument for a node outside the snapshot. *)

val rank_opt : t -> Rxml.Dom.t -> int option
(** Like {!rank} but [None] outside the snapshot. *)

val mem : t -> Rxml.Dom.t -> bool

val extent : t -> Rxml.Dom.t -> int * int
(** [(r, e)]: the node's own rank and the rank of the last node of its
    subtree (inclusive).  [x] is a strict descendant iff
    [r < rank x && rank x <= e]; before iff [rank x < r]; after iff
    [rank x > e].
    @raise Invalid_argument for a node outside the snapshot. *)

val node_at : t -> int -> Rxml.Dom.t
(** Inverse of {!rank}. @raise Invalid_argument if out of range. *)

val subtree_end : t -> int -> int
(** [subtree_end t r]: the rank of the last node in the subtree of the node
    at rank [r] — the second half of {!extent}, read by rank. *)

val parent_rank : t -> int -> int
(** Rank of the parent of the node at rank [r]; [-1] for the indexed root,
    whose parent (if any) lies outside the index. *)

val compare_order : t -> Rxml.Dom.t -> Rxml.Dom.t -> int
(** Document order by rank; no fallback.
    @raise Invalid_argument for nodes outside the snapshot. *)

(** {1 Whole-axis slices} *)

val slice : t -> lo:int -> hi:int -> Rxml.Dom.t list
(** Nodes with [lo <= rank <= hi], in document order (empty if [lo > hi]). *)

val descendants : t -> Rxml.Dom.t -> Rxml.Dom.t list
(** Strict descendants in document order — one contiguous slice. *)

val following : t -> Rxml.Dom.t -> Rxml.Dom.t list
(** The following axis in document order — the suffix slice after the
    node's extent. *)

val preceding : t -> Rxml.Dom.t -> Rxml.Dom.t list
(** The preceding axis in {e reverse} document order (nearest first): the
    prefix before the node's rank minus its ancestors. *)

(** {1 Tag postings} *)

val postings : t -> string -> int array
(** Ranks of the elements with the tag, ascending ({!node_at} maps them
    back to nodes).  The array is shared — callers must not mutate it.
    Empty for unknown tags. *)

val cardinality : t -> string -> int
(** O(1): cached posting length. *)

val tags : t -> string list

val lower_bound : int array -> lo:int -> int -> int
(** [lower_bound a ~lo target]: the first index [i >= lo] of the ascending
    array [a] with [a.(i) >= target] ([Array.length a] if none) — binary
    search. *)

(** {1 Range-based name tests (binary search over postings)} *)

val descendants_by_tag : t -> Rxml.Dom.t -> string -> Rxml.Dom.t list
(** [descendant::tag] in document order: the posting array's contiguous
    sub-range inside the context node's extent, found by binary search —
    O(log |postings| + output). *)

val following_by_tag : t -> Rxml.Dom.t -> string -> Rxml.Dom.t list
(** [following::tag] in document order: the posting suffix past the
    context extent. *)

val preceding_by_tag : t -> Rxml.Dom.t -> string -> Rxml.Dom.t list
(** [preceding::tag] in reverse document order: the posting prefix before
    the context rank, minus ancestors (each excluded by one extent test). *)
