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
    the source tree's maximal fan-out.  The cut is taken in one pass over
    the tree's preorder arrays ({!partition_layout}).

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

(** {1 The enumeration kernel}

    Numbering (Sections 2.1-2.2) reads a tree through the preorder arrays
    of one walk ({!Order_index.preorder}) and a cut marked by position,
    not through the DOM and serial-keyed tables: the greedy cut, the
    fan-out refinement, each area's root, size and fan-out and the frame
    slots are a few linear passes over those arrays.
    {!Ruid2} enumerates the areas from a layout, and restores a persisted
    numbering by re-deriving every identifier over one. *)

type layout = {
  pre : Order_index.preorder;
  cut : Bytes.t;  (** ['\001'] at the positions of area roots *)
  aroot : int array;
      (** per area: the position of its root.  Areas are numbered in
          preorder of their roots; the tree root's is area 0. *)
  fslot : int array;
      (** per area other than 0: its index among its frame parent's frame
          children, in document order *)
  fprev : int array;
      (** per area: the frame sibling just before it, [-1] for a first
          frame child (and area 0) *)
  fanout : int array;
      (** per area: the maximal degree over the nodes whose children it
          enumerates, at least 1 (what {!area_fanout} computes) *)
  members : int array;  (** per area: nodes enumerated in it, root included *)
  kappa : int;  (** frame fan-out, at least 1 (what {!frame_fanout} computes) *)
}

val partition_layout :
  ?max_area_size:int -> ?max_area_depth:int -> ?adjust:bool ->
  Rxml.Dom.t -> t * layout
(** {!partition} together with the layout of its cut: one walk, the
    greedy cut in one pass over its arrays, and the Section 2.3 promotion
    loop only when a frame-child count taken in that pass exceeds the
    tree's fan-out. *)

val layout : t -> layout
(** The layout of an explicit frame (one walk of its tree). *)

val of_cut_bits : Order_index.preorder -> Bytes.t -> t * layout
(** The frame whose area roots are the marked positions of a walk (the
    tree root always among them), and its layout.  Marks position 0. *)

val check_invariants : t -> unit
(** Validate Definitions 1-2: cut set covers the tree, areas are induced
    subtrees, adjacent areas intersect in exactly the child-area root.
    @raise Failure describing the violated invariant. *)

val check : t -> unit
(** Alias of {!check_invariants}; the name used by the recovery
    postcondition ({!Ruid2.check} runs it as its first step). *)
