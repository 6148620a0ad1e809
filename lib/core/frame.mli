(** Frames and UID-local areas (Definitions 1 and 2 of the paper).

    A partition of an XML tree is represented by its {e cut set}: the set of
    area-root nodes, which always contains the tree root.  The frame is the
    tree induced on the cut set (an edge between two area roots when one is
    an ancestor of the other with no area root strictly between).  The
    UID-local area rooted at an area root [r] consists of [r] together with
    every descendant reachable without passing through another area root;
    roots of child areas are included as leaves of the upper area — they are
    the single-node intersections of adjacent areas.

    Every node is {e enumerated} in exactly one area: the area of its parent
    (the tree root is enumerated in its own area, at index 1). *)

type t

val root : t -> Rxml.Dom.t

val partition :
  ?max_area_size:int -> ?max_area_depth:int -> ?adjust:bool -> Rxml.Dom.t -> t
(** Cut the tree greedily, in document order, into areas of at most
    [max_area_size] enumerated nodes (default 64; minimum 2).  With [adjust]
    (default [true]), apply the Section 2.3 refinement: promote branching
    nodes to area roots until the frame's maximal fan-out does not exceed
    the source tree's maximal fan-out.

    [max_area_depth] additionally cuts any root path longer than that many
    edges inside one area.  Because a local index can reach [k{^d}] for an
    area of fan-out [k] and depth [d], unbounded area depth overflows
    native-integer locals on deeply recursive documents; the default limit
    is [max 4 (48 / bits (max_fanout + 1))], which keeps every local index
    under roughly 48 bits — "appropriately dividing an XML tree into
    UID-local areas" (Section 3.1). *)

val default_area_size : int
(** 64 — the [max_area_size] {!partition} uses when none is given. *)

val default_area_depth : max_fanout:int -> int
(** The depth budget {!partition} derives when none is given: keeps every
    local index under roughly 48 bits for a tree of the given maximal
    fan-out. *)

val adjust_fanout : t -> unit
(** The Section 2.3 refinement in isolation: promote branching nodes to
    area roots until the frame's maximal fan-out does not exceed the source
    tree's.  {!partition} applies it when [adjust] is set; exposed so the
    streaming builder ({!Stream_build}) can run it over an online-computed
    cut. *)

(** The greedy cut of {!partition} as an online algorithm: feed it a
    preorder enter/leave walk — e.g. SAX start/end events — and it decides
    each node's area-root status the moment the node starts, from a stack
    of open-area budgets alone.  State is O(tree depth); the resulting cut
    is exactly the one [greedy_cut] inside {!partition} produces (tested
    equivalent). *)
module Cut_builder : sig
  type builder

  val create : ?max_area_size:int -> max_area_depth:int -> unit -> builder
  (** Defaults [max_area_size] to {!default_area_size}.  The depth budget
      is required: deriving it needs the tree's maximal fan-out, which a
      stream only knows at the end ({!default_area_depth}). *)

  val enter : builder -> serial:int -> bool
  (** Called at each node start in document order with the node's DOM
      serial; returns whether the node becomes an area root.  The first
      node entered is the tree root (always an area root). *)

  val leave : builder -> unit
  (** Called at each node end. *)

  val finish : builder -> root:Rxml.Dom.t -> t
  (** The completed frame over the tree rooted at [root] (which must carry
      the serial of the first entered node).
      @raise Invalid_argument on an unbalanced walk or a foreign root. *)
end

val of_cut_set : Rxml.Dom.t -> Rxml.Dom.t list -> t
(** Build a frame from an explicit cut set (the tree root is added
    implicitly).  Used by tests reconstructing the paper's figures.
    @raise Invalid_argument if a listed node is not in the tree. *)

val is_area_root : t -> Rxml.Dom.t -> bool

val area_root_of : t -> Rxml.Dom.t -> Rxml.Dom.t
(** The root of the area in which the node is {e enumerated}: the nearest
    area root that is a strict ancestor — or the node itself for the tree
    root. *)

val own_area_root : t -> Rxml.Dom.t -> Rxml.Dom.t
(** Nearest area root that is the node itself or an ancestor.  Walks parent
    pointers by identity: in a tree shared between versions the result
    may be an older version of that area root (same serial), to be
    resolved through the numbering ({!Ruid2.current}). *)

val frame_parent : t -> Rxml.Dom.t -> Rxml.Dom.t option
(** For an area root: the nearest strict-ancestor area root. *)

val frame_children : t -> Rxml.Dom.t -> Rxml.Dom.t list
(** For an area root: its frame children in document order. *)

val area_roots : t -> Rxml.Dom.t list
(** All area roots in document order (the tree root first). *)

val area_count : t -> int

val area_members : t -> Rxml.Dom.t -> Rxml.Dom.t list
(** Nodes enumerated in the area of the given area root, in document order,
    the area root itself first.  Roots of child areas appear (as leaves);
    their own members do not. *)

val area_fanout : t -> Rxml.Dom.t -> int
(** Maximal fan-out used to enumerate the area: the maximum degree over
    nodes whose children are enumerated in this area (at least 1). *)

val frame_fanout : t -> int
(** kappa: the maximal number of frame children over all area roots (at
    least 1). *)

val frame_depth : t -> int

val uncut : t -> Rxml.Dom.t -> unit
(** Remove a node from the cut set in place (used when a whole area is
    deleted from a frame nothing else shares).
    @raise Invalid_argument on the tree root. *)

(** {1 Versions}

    A numbering that shares its frame with older versions never edits it
    in place: each structural update derives a new frame value. *)

val reroot : t -> Rxml.Dom.t -> t
(** The same cut set over a new copy of the tree root (path copying,
    {!Ruid2.insert_node}). *)

val drop : t -> Rxml.Dom.t -> t
(** The frame without the given area root; the argument is unchanged.
    O(log dropped). *)

val check_invariants : t -> unit
(** Validate Definitions 1-2: cut set covers the tree, areas are induced
    subtrees, adjacent areas intersect in exactly the child-area root.
    @raise Failure describing the violated invariant. *)

val check : t -> unit
(** Alias of {!check_invariants}; the name used by the recovery
    postcondition ({!Ruid2.check} runs it as its first step). *)
