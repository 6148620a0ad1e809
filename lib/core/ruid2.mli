(** The 2-level recursive UID numbering scheme (Sections 2.1-2.3) with the
    axis routines of Section 3.5 and the structural-update behaviour of
    Section 3.2.

    A node identifier is the triple of Definition 3: global index (the
    kappa-ary UID of its area in the frame), local index (its UID inside an
    area) and root indicator.  For a non-root node the pair is
    (area, index inside the area); for an area root the global index is the
    index of {e its own} area while the local index is its leaf index in the
    {e upper} area.  The identifier of the whole tree's root is
    [(1, 1, true)].

    The structure keeps the paper's global parameters — kappa and the table
    K — plus the node/identifier maps that play the role of the stored data.
    Every derivation routine ([rparent], [rchildren], relations) touches only
    kappa and K: no tree access. *)

type id = Order_index.id = { global : int; local : int; is_root : bool }
(** Built numberings keep identifiers unboxed in their {!order} index;
    {!id_of_node} returns a fresh record. *)

val pp_id : Format.formatter -> id -> unit
val id_to_string : id -> string
val id_equal : id -> id -> bool
val id_compare : id -> id -> int
(** Arbitrary total order for use as a map key (not document order). *)

type t

(** {1 Construction} *)

val number :
  ?max_area_size:int -> ?max_area_depth:int -> ?adjust:bool -> Rxml.Dom.t -> t
(** Partition (see {!Frame.partition}) and enumerate the tree.
    @raise Uid.Overflow if the frame enumeration overflows native-int UIDs
    (a very deep branching frame) — such documents need more levels: see
    {!Mruid}. *)

val number_with_frame : Frame.t -> t
(** Enumerate with an explicit partition (tests, ablations).  {!number}
    and this share one kernel: a walk's preorder arrays
    ({!Frame.layout}), then each area enumerated breadth first. *)

val restore :
  kappa:int -> cut:Bytes.t -> slots:int array -> fanouts:int array ->
  Order_index.preorder -> t
(** Rebuild a numbering from its persisted frame, with the kernel
    {!number} runs: [cut] marks the positions of the area roots in the
    walk of the tree ({!Frame.of_cut_bits}; position 0 is marked for
    it), and per area, in preorder of its root, [slots] holds its index
    among its frame parent's kappa frame-child slots (ignored for the
    tree root's area) and [fanouts] its K fan-out.  Every local, every
    global and K's [root_local]s are derived, as {!number} derives them
    from a fresh layout.  Rejected: [kappa] below 1, a slot not below
    [kappa], frame siblings whose slots do not ascend in document order,
    a fan-out below the largest degree its area enumerates, and an index
    past the native int.  A numbering it accepts passes {!check}.  Used
    by {!Persist.load}; the walk is taken over.
    @raise Invalid_argument naming the area (by its root's preorder
    position) on the first violation. *)

val clone : t -> t
(** O(1): a second handle on the same version.  Every table is persistent
    and the two handles share all of them and the tree; an update to
    either derives a new version for that handle alone, copying only the
    renumbered area, the path from the change up to the root and a
    bounded piece of the order index (see {!insert_node}).  Identifiers
    are bit-identical to the source.  The fast path behind incremental
    snapshot publication, the server's first-write copy and a replica's
    writer copy.

    Until its first clone a numbering owns its tree and updates edit the
    tree in place, so a caller that built the tree sees the edits through
    its own handles.  After it, neither handle edits the shared tree: an
    update makes new versions of the nodes on the changed path (same
    serials) and {!root} returns the new root. *)

(** {1 Global parameters (what must sit in main memory)} *)

val kappa : t -> int
val ktable : t -> Ktable.t
val frame : t -> Frame.t
val root : t -> Rxml.Dom.t
val area_count : t -> int

val order : t -> Order_index.t
(** The document-order index the numbering keeps: every node's order key,
    its current version, its subtree extent and its identifier. *)

val aux_memory_words : t -> int
(** Words of main memory the derivation routines need: K plus kappa. *)

(** {1 Identifiers} *)

val id_of_node : t -> Rxml.Dom.t -> id
(** @raise Not_found for a node outside the numbered tree. *)

val node_of_id : t -> id -> Rxml.Dom.t option

val current : t -> Rxml.Dom.t -> Rxml.Dom.t option
(** The version of a node in this numbering, by identity (serial); [None]
    for a node outside the tree.  A caller holding a node across updates
    of a cloned numbering resolves it here. *)

val node_at_rank : t -> int -> Rxml.Dom.t option
(** The node at a preorder position of {!root} (the addressing of
    {!Rstorage.Wal} operations), through the order index: O(1) on a fresh
    numbering, O(log edits since the last compaction) after updates —
    never a tree walk. *)

val area_root_node : t -> int -> Rxml.Dom.t option
(** The node rooting the area with the given global index. *)

val global_of_area : t -> Rxml.Dom.t -> int option
(** The global index of the area rooted at the given node, if it is an
    area root. *)

val all_nodes : t -> Rxml.Dom.t list
(** All numbered nodes in document order. *)

val max_local_bits : t -> int
(** Bits of the largest global or local index in use — identifier
    magnitude, for experiment E1. *)

val total_label_bits : t -> int
(** Sum over all nodes of the identifier size in bits (global + local +
    root flag). *)

(** {1 Derivation routines (identifier arithmetic over kappa and K only)} *)

val rparent : t -> id -> id option
(** The algorithm of Fig. 6.  [None] on the tree root. *)

val rancestors : t -> id -> id list
(** Strict ancestors by iterated {!rparent}, nearest first. *)

val rlevel : t -> id -> int

val possible_children_ids : t -> id -> id list
(** The candidate list L of routine [rchildren] (Section 3.5), from K alone:
    identifiers every child of the node {e would} have, with correct root
    indicators; includes slots not occupied by real nodes. *)

val relationship : t -> id -> id -> Rel.t
(** Full structural relation of two identifiers, using kappa, K and
    identifier arithmetic only (Lemmas 1-3). *)

val doc_order : t -> id -> id -> int

(** {1 Axes (actual node sets, in document order)} *)

val parent_node : t -> Rxml.Dom.t -> Rxml.Dom.t option
val ancestors : t -> Rxml.Dom.t -> Rxml.Dom.t list
val children : t -> Rxml.Dom.t -> Rxml.Dom.t list

val descendants : t -> Rxml.Dom.t -> Rxml.Dom.t list

(** Like {!descendants} but in unspecified order and asymptotically
    cheaper: one virtual-ancestry test per member of the context node's own
    area, and descendant areas are swallowed whole. *)
val descendants_unordered : t -> Rxml.Dom.t -> Rxml.Dom.t list
val following_siblings : t -> Rxml.Dom.t -> Rxml.Dom.t list
val preceding_siblings : t -> Rxml.Dom.t -> Rxml.Dom.t list
val preceding : t -> Rxml.Dom.t -> Rxml.Dom.t list
val following : t -> Rxml.Dom.t -> Rxml.Dom.t list

(** {1 Structural update (Section 3.2)} *)

val insert_node : ?slack:int -> t -> parent:Rxml.Dom.t -> pos:int -> Rxml.Dom.t -> int
(** Insert a fresh leaf as the [pos]-th child and re-enumerate the single
    affected UID-local area, enlarging its fan-out when the parent's degree
    outgrows it ([slack] adds headroom on such growth, default 0).  Returns
    the number of {e pre-existing} nodes whose identifier changed.

    [parent] is taken by identity: a node held from an earlier version
    names its current version.  Cost: the renumbered area, the path to the
    root (new node versions once the numbering is shared) and O(log edits)
    per touched key; the order index compacts — one O(nodes) rebuild —
    when its edits outgrow an eighth of the document.  An update that
    raises ({!Uid.Overflow}) leaves a cloned numbering at its previous
    version. *)

val delete_subtree : t -> Rxml.Dom.t -> int
(** Cascading deletion (Section 3.2): remove the node and all descendants,
    drop the K rows of any areas inside, re-enumerate only the area where
    the deleted root was enumerated.  Returns the number of surviving nodes
    whose identifier changed.  The node is taken by identity, as for
    {!insert_node}.
    @raise Invalid_argument when asked to delete the tree root. *)

val check_consistency : t -> unit
(** Verify the identifier maps against the DOM: every node labeled, ids
    unique, [rparent] agreeing with the DOM parent, K well-formed.
    @raise Failure on the first violation. *)

val check : t -> unit
(** Deep invariant checker — {!check_consistency} plus: the K table and the
    area set agree row by row (root identifiers, leaf indices, fan-outs at
    least 1), every occupied enumeration slot is reachable from its area
    root through occupied parent slots, no node's degree exceeds the
    fan-out of the area enumerating its children, and identifier
    comparison ranks all nodes exactly in document order.  This is the
    postcondition of crash recovery ({!Persist} + the storage-layer
    journal).
    @raise Failure on the first violation. *)

val enumeration_area : t -> id -> int
(** The global index of the area in which the identifier is {e enumerated}:
    the identifier's own area for a non-root, the upper area for an area
    root (the tree root is enumerated in area 1).  Structural updates
    renumber exactly one enumeration area (Section 3.2), so this is the key
    for deciding whether an update could have touched an identifier. *)
