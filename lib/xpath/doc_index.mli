(** Document-order index over a numbered document: order keys, subtree
    extents and per-tag posting arrays.

    The index reads the numbering's own order index ({!Ruid.Order_index}):
    every node has an {e order key}, an integer that grows in document
    order, and a subtree extent [(key, last)] — a node [x] is a strict
    descendant iff [key < key x <= last], before iff [key x < key], after
    iff [key x > last].  Keys are ordered but not consecutive (an insert
    takes a key in a gap, so no other key moves):
    {!Ruid.Order_index.next} steps to the next node.  Per-tag postings are ascending key arrays with O(1)
    cardinality.  This is the sorted-array substrate the structural-join
    literature (stack-tree over interval labels) assumes; the planner's
    join kernels and {!Engine_ruid} read it.

    Preorder ranks ([0 .. size - 1]) are available too ({!rank},
    {!node_at}, {!extent}): O(1) on a fresh build, O(log edits) after
    updates.

    The index is a value of one version: {!advance} derives the next
    version's index by sharing.  Lookups of nodes outside the version
    raise [Invalid_argument] — a stale index is a hard error, never a
    silent mis-sort. *)

type t

val build : Ruid.Ruid2.t -> t
(** Index every node of the numbered tree (elements, text, comments):
    shares the numbering's order index and builds the postings. *)

val advance : t -> Ruid.Ruid2.t -> t
(** The index of a later version of the same numbering (a clone of the
    one [t] indexes, updated): the postings of the tags the updates
    touched are rebuilt, O(their cardinality); all others are shared.
    After a compaction of the order index it is {!build}. *)

val size : t -> int
(** Number of indexed nodes. *)

(** {1 Order keys (the join kernels' addressing)} *)

val key : t -> Rxml.Dom.t -> int
(** @raise Invalid_argument for a node outside the version. *)

val key_opt : t -> Rxml.Dom.t -> int option
val mem : t -> Rxml.Dom.t -> bool

val order : t -> Ruid.Order_index.t
(** The numbering's order index: {!Ruid.Order_index.node},
    [last], [next], [parent] and [has_tag] read a key's node version,
    subtree end, successor, parent key and tag — one array read each on a
    version nobody wrote. *)

val approx_rank : t -> int -> int
(** The preorder rank of a key up to the inserts and deletes since the
    last build — exact on a fresh build; for cost estimates. *)

val compare_order : t -> Rxml.Dom.t -> Rxml.Dom.t -> int
(** Document order by key; no fallback.
    @raise Invalid_argument for nodes outside the version. *)

(** {1 Preorder ranks} *)

val rank : t -> Rxml.Dom.t -> int
(** Preorder rank of a node, [0 .. size - 1].
    @raise Invalid_argument for a node outside the version. *)

val rank_opt : t -> Rxml.Dom.t -> int option

val extent : t -> Rxml.Dom.t -> int * int
(** [(r, e)]: the node's own rank and the rank of the last node of its
    subtree (inclusive). *)

val node_at : t -> int -> Rxml.Dom.t
(** Inverse of {!rank}. @raise Invalid_argument if out of range. *)

(** {1 Whole-axis slices} *)

val slice : t -> lo:int -> hi:int -> Rxml.Dom.t list
(** Nodes with [lo <= rank <= hi], in document order (empty if [lo > hi]). *)

val descendants : t -> Rxml.Dom.t -> Rxml.Dom.t list
(** Strict descendants in document order — one contiguous key range. *)

val following : t -> Rxml.Dom.t -> Rxml.Dom.t list
(** The following axis in document order — the keys past the node's
    extent. *)

val preceding : t -> Rxml.Dom.t -> Rxml.Dom.t list
(** The preceding axis in {e reverse} document order (nearest first): the
    keys before the node's minus its ancestors. *)

(** {1 Tag postings} *)

val postings : t -> string -> int array
(** Keys of the elements with the tag, ascending ({!Ruid.Order_index.node} maps them
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
    the context key, minus ancestors (each excluded by one extent test). *)
