(** Persistent document-order index: order keys, node versions, subtree
    extents and one payload per node.

    Every node of a tree has an {e order key}, an integer that grows in
    document order.  A bulk build gives the node at preorder position [i]
    the key [i * step]; a node inserted later takes a key in the gap after
    its predecessor, so no other key moves and an insert or delete costs
    O(log edits), not O(nodes).  Keys are therefore ordered but not
    consecutive: {!next} steps from one live key to the next.

    A value is immutable.  Edits return a new index that shares the flat
    arrays of the last build with the old one.  It keeps its own changes
    in balanced maps, one per field (node versions, subtree ends,
    payloads, inserted keys), and the keys that move a preorder position
    (inserts and deaths) in a tree of running sums.  A lookup probes the
    map of the field it reads and costs one array read when that map is
    empty.  {!compact} rebuilds the arrays from a tree and drops the
    maps.  The index behind {!Ruid2}. *)

type 'a t

type 'a entry = {
  node : Rxml.Dom.t;  (** the version of the node this index holds *)
  last : int;  (** key of the last node of its subtree *)
  pay : 'a;
}

val shift : int
(** Built keys are [i lsl shift]. *)

(** {1 Bulk build} *)

type preorder = {
  nodes : Rxml.Dom.t array;  (** position -> node, in document order *)
  last : int array;  (** position of the last node of the node's subtree *)
  height : int;  (** edges on the longest path from the root *)
  max_degree : int;  (** the maximal number of children, at least 1 *)
}
(** The arrays of one preorder walk: what the numbering kernel
    ({!Frame.layout}) reads and what {!of_preorder} builds the index
    from.  The parent of position [i] is the nearest [j < i] with
    [last.(j) >= i]: a stack of open positions, at most [height + 1]
    deep, recovers it in passing. *)

val preorder : Rxml.Dom.t -> preorder
(** The bulk-build walk: one pass over the tree. *)

val of_preorder : preorder -> 'a array -> 'a t
(** The index over a walk's arrays, with the payload of each position.
    Takes over [nodes], [last] (rewritten in place) and the payload
    array: none of them may be used or shared afterwards.  Serials
    address the built positions through an array over the serial range
    of the walk and a table for the rest (the leaves inserted since,
    whose serials come from anywhere in the process-global counter), so
    the index stays O(nodes) however long the process has run.
    @raise Invalid_argument unless there is one payload per node. *)

val size : 'a t -> int
(** Live nodes. *)

val edits : 'a t -> int
(** Edits since the last build (map bindings). *)

val same_build : 'a t -> 'a t -> bool
(** The two values descend from one build (share its arrays). *)

val key : 'a t -> Rxml.Dom.t -> int
(** Order key of a node by identity (serial); [-1] outside the index. *)

val key_of_serial : 'a t -> int -> int

val node : 'a t -> int -> Rxml.Dom.t
(** The current version of the node with the key.  Keys must be live. *)

val any_version : 'a t -> int -> Rxml.Dom.t
(** A version of the node with the key — the current one or the one the
    last build saw — for what every version shares: serial, payload, the
    parent's serial.  No overlay probe for a built key. *)

val last : 'a t -> int -> int
(** Key of the last node of the subtree at the key. *)

val pay : 'a t -> int -> 'a

val parent : 'a t -> int -> int
(** Key of the parent of the node with the key, found by the parent's
    serial; [-1] for the indexed root, whose parent (if any) lies outside
    the index. *)

val has_tag : 'a t -> int -> string -> bool
(** Whether the node with the key is an element with the tag. *)

val next : 'a t -> int -> int
(** The first live key after [k], [-1] at the end: a first child's key is
    its parent's [next]; a next sibling's is [next (last k)]. *)

val iter_range : 'a t -> lo:int -> hi:int -> (int -> unit) -> unit
(** Live keys in [lo .. hi], ascending. *)

val fold : (int -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Every live key, ascending. *)

val iter_pay : ('a -> unit) -> 'a t -> unit
(** Every live payload, in document order: a pass over the build's array
    while no key moved and no payload changed. *)

val nth : 'a t -> int -> int
(** Key of the node at a preorder position, [-1] out of range:
    O(log edits). *)

val rank : 'a t -> int -> int
(** Preorder position of a live key (inverse of {!nth}): O(log edits). *)

val set_node : 'a t -> int -> Rxml.Dom.t -> 'a t
(** A new version of the node with a live key. *)

val set_last : 'a t -> int -> int -> 'a t
val set_pay : 'a t -> int -> 'a -> 'a t

val alloc_after : 'a t -> int -> int
(** A free key between [k] and the next occupied key, [-1] when that gap
    is used up (then {!compact} first). *)

val insert : 'a t -> int -> 'a entry -> 'a t
(** Bind a key from {!alloc_after} to a new node. *)

val remove : 'a t -> int -> 'a t

val log : 'a t -> (int * Rxml.Dom.t * bool) list
(** Keys inserted ([true]) and removed ([false]) since the last build,
    newest first — what a derived index (tag postings) folds in. *)

val log_len : 'a t -> int

val compact : 'a t -> Rxml.Dom.t -> 'a t
(** A fresh build over the given tree (the current one), payloads carried
    over by identity; the serial array keeps [t]'s range. *)
