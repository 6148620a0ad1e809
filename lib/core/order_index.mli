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
    maps.  The index behind {!Ruid2}: its payload is the node's
    identifier, which a build stores unboxed, as two ints a node. *)

type t

type id = { global : int; local : int; is_root : bool }
(** The identifier of Definition 3 ({!Ruid2.id}).  A build keeps the
    globals, negated on area roots (every global is at least 1), and the
    locals in two int arrays: two words a node.  A lookup returns a fresh
    record; an edit keeps its identifier boxed until {!compact}. *)

type entry = {
  node : Rxml.Dom.t;  (** the version of the node this index holds *)
  last : int;  (** key of the last node of its subtree *)
  pay : id;
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

val of_preorder : preorder -> globals:int array -> locals:int array -> t
(** The index over a walk's arrays, with the identifier of each position:
    [globals] (negated on an area root) and [locals].  Takes over [nodes],
    [last] (rewritten in place) and the two identifier arrays: none of
    them may be used or shared afterwards.  Serials
    address the built positions through an array over the serial range
    of the walk and a table for the rest (the leaves inserted since,
    whose serials come from anywhere in the process-global counter), so
    the index stays O(nodes) however long the process has run.
    @raise Invalid_argument unless there is one identifier per node. *)

val size : t -> int
(** Live nodes. *)

val edits : t -> int
(** Edits since the last build (map bindings). *)

val same_build : t -> t -> bool
(** The two values descend from one build (share its arrays). *)

val key : t -> Rxml.Dom.t -> int
(** Order key of a node by identity (serial); [-1] outside the index. *)

val key_of_serial : t -> int -> int

val node : t -> int -> Rxml.Dom.t
(** The current version of the node with the key.  Keys must be live. *)

val any_version : t -> int -> Rxml.Dom.t
(** A version of the node with the key — the current one or the one the
    last build saw — for what every version shares: serial, payload, the
    parent's serial.  No overlay probe for a built key. *)

val last : t -> int -> int
(** Key of the last node of the subtree at the key. *)

val pay : t -> int -> id

val parent : t -> int -> int
(** Key of the parent of the node with the key, found by the parent's
    serial; [-1] for the indexed root, whose parent (if any) lies outside
    the index. *)

val has_tag : t -> int -> string -> bool
(** Whether the node with the key is an element with the tag. *)

val next : t -> int -> int
(** The first live key after [k], [-1] at the end: a first child's key is
    its parent's [next]; a next sibling's is [next (last k)]. *)

val iter_range : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** Live keys in [lo .. hi], ascending. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Every live key, ascending. *)

val iter_pay : (id -> unit) -> t -> unit
(** Every live identifier, in document order: a pass over the build's
    arrays while no key moved and no identifier changed. *)

val iter_sizes : (int -> unit) -> t -> unit
(** Every live node's subtree size (nodes, itself included), in document
    order: a pass over the build's extents while no key moved, O(log
    edits) a node after edits. *)

val nth : t -> int -> int
(** Key of the node at a preorder position, [-1] out of range:
    O(log edits). *)

val rank : t -> int -> int
(** Preorder position of a live key (inverse of {!nth}): O(log edits). *)

val set_node : t -> int -> Rxml.Dom.t -> t
(** A new version of the node with a live key. *)

val set_last : t -> int -> int -> t
val set_pay : t -> int -> id -> t

val alloc_after : t -> int -> int
(** A free key between [k] and the next occupied key, [-1] when that gap
    is used up (then {!compact} first). *)

val insert : t -> int -> entry -> t
(** Bind a key from {!alloc_after} to a new node. *)

val remove : t -> int -> t

val log : t -> (int * Rxml.Dom.t * bool) list
(** Keys inserted ([true]) and removed ([false]) since the last build,
    newest first — what a derived index (tag postings) folds in. *)

val log_len : t -> int

val compact : t -> Rxml.Dom.t -> t
(** A fresh build over the given tree (the current one), payloads carried
    over by identity and unboxed again; the serial array keeps [t]'s
    range. *)
