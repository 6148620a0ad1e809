(** DataGuide structural summaries (Goldman & Widom, cited as the paper's
    Related Work on structural summaries).

    For tree-shaped data the strong DataGuide is the label-path trie: one
    guide node per distinct root label path.  Goldman and Widom annotate
    each with its target set; here a guide node keeps only the size of
    that set, its occurrence count: the planner's tag postings already
    index every extent, so the summary stays a path summary of labels and
    counts, a few words per distinct path and none per document node.  It
    is the "guide by which users can perform meaningful and valid
    queries" (Section 6).

    The trie hangs below a {e virtual root}: a document node may carry
    several top-level elements (rank-0 inserts), each of which gets its own
    guide child.  The virtual root itself is not a label path — it never
    counts toward {!guide_nodes} and never appears in {!paths}.

    Beyond the summary proper, the guide carries what a cost-based query
    planner needs: per-path occurrence counts ({!count}), a read-only
    cursor API over the trie, a structure-only {!fingerprint} for plan-cache
    keying, and incremental maintenance ({!add_path}/{!remove_path}/
    {!prune}) so a guide can follow a stream of structural updates without
    a rebuild. *)

type t

val build : Rxml.Dom.t -> t
(** Summarize the element tree rooted at the argument (an element, or a
    document node whose element children are summarized side by side).
    A guide node's children are scanned for a label, here and in
    {!add_path}: O(distinct child labels) a lookup, so a node with
    thousands of distinct child labels makes a build quadratic. *)

val guide_nodes : t -> int
(** Number of distinct label paths — the summary's size. *)

val document_nodes : t -> int

val paths : t -> string list list
(** All label paths in document order of first occurrence, root path
    first. *)

val mem : t -> string list -> bool

val count : t -> string list -> int
(** Number of document nodes with exactly this label path; 0 if absent.
    Kept exact by {!add_path}/{!remove_path}. *)

val child_labels : t -> string list -> string list
(** Labels observed immediately below a path — what a query assistant
    offers for completion. *)

(** {1 Cursors}

    A zero-copy read view of the trie for planners: walk from the virtual
    root, read labels, occurrence counts and children.  Cursors observe
    later mutations of the same guide — hold them only within one planning
    pass. *)

type cursor

val cursor : t -> cursor
(** The virtual root (label ["" ], count 0). *)

val cursor_label : cursor -> string
val cursor_count : cursor -> int

val cursor_children : cursor -> cursor list
(** First-occurrence order. *)

(** {1 Planner maintenance} *)

val clone : t -> t
(** Deep copy; the original may keep serving readers while the copy is
    mutated (snapshot publication relies on this). *)

val fingerprint : t -> int
(** Structure-only hash of the label-path set — counts do not contribute,
    so pure cardinality drift keeps the fingerprint (and any plan cache
    keyed on it) intact.  Canonical: an incrementally maintained guide and
    a fresh build of the same structure fingerprint identically.  Cached;
    recomputed only after a structural change. *)

val add_path : t -> string list -> unit
(** Record one more document node with this label path, creating guide
    nodes as needed.
    @raise Invalid_argument on the empty path. *)

val remove_path : t -> string list -> bool
(** Remove one occurrence; [false] when the path has no occurrences to
    remove (the guide no longer describes the document — rebuild).  Leaves
    zero-count nodes in place; run {!prune} to drop dead subtrees. *)

val prune : t -> unit
(** Drop guide subtrees with no occurrences left — O(guide). *)

val pp : Format.formatter -> t -> unit
(** The trie with per-path occurrence counts. *)
